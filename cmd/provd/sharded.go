package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"

	"browserprov/internal/provgraph"
	"browserprov/internal/shardmap"
)

// shardBackend is -shard-root mode: a shard map of tenant stores under
// root/xx/<tenant>, opened on first touch and LRU-closed past the cap. A
// store that fails a scrub or draws repeated panics is quarantined and
// repaired while every other tenant keeps serving.
type shardBackend struct {
	m             *shardmap.Map
	defaultTenant string
	sweeps        atomic.Uint64
}

// openShards opens the shard map, keeping each store's previous
// checkpoint generation for repair.
func openShards(root string, maxOpen int, defaultTenant string, opts provgraph.Options) (*shardBackend, error) {
	opts.RetainPrevCheckpoint = true
	m, err := shardmap.Open(root, shardmap.Options{MaxOpen: maxOpen, Store: opts})
	if err != nil {
		return nil, err
	}
	return &shardBackend{m: m, defaultTenant: defaultTenant}, nil
}

func (sb *shardBackend) tenant(header string) (string, error) {
	if header == "" {
		header = sb.defaultTenant
	}
	return header, shardmap.ValidateTenantID(header)
}

func (sb *shardBackend) pin(key string) (sink, func(), error) {
	h, err := sb.m.Get(key)
	if err != nil {
		return nil, nil, err
	}
	return h, h.Release, nil
}

func (sb *shardBackend) strike(key, reason string) {
	n := sb.m.Strike(key, reason)
	log.Printf("provd: tenant %s: strike %d toward quarantine", key, n)
}

func (sb *shardBackend) healthz() (string, error) {
	st := sb.m.Stats()
	return fmt.Sprintf("ok open=%d known=%d quarantined=%d", st.OpenTenants, st.KnownTenants, st.Quarantined), nil
}

func (sb *shardBackend) ready() error { return nil }

// stats is the global rollup beside the shell's fields.
func (sb *shardBackend) stats(sh shellStats) (any, error) {
	return struct {
		shellStats
		shardmap.Stats
		QuarantinedTenants []shardmap.QuarantineInfo `json:"quarantined_tenants,omitempty"`
		ScrubSweeps        uint64                    `json:"scrub_sweeps"`
	}{sh, sb.m.Stats(), sb.m.QuarantinedTenants(), sb.sweeps.Load()}, nil
}

// routes adds per-tenant detail at /stats/<tenant>, which touches (and
// may open) that tenant's store.
func (sb *shardBackend) routes(mux *http.ServeMux, ing http.Handler) {
	mux.Handle("/ingest", ing)
	mux.HandleFunc("/stats/", func(w http.ResponseWriter, r *http.Request) {
		ts, err := sb.m.TenantStats(strings.TrimPrefix(r.URL.Path, "/stats/"))
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, shardmap.ErrBadTenantID) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ts) //nolint:errcheck
	})
}

// scrub walks every open store; one that fails goes to quarantine.
func (sb *shardBackend) scrub() {
	clean, quarantined := sb.m.ScrubSweep(scrubSliceBudget)
	sb.sweeps.Add(1)
	if len(quarantined) > 0 {
		log.Printf("provd: scrub sweep: %d clean, quarantined %v (repair workers started)", clean, quarantined)
	}
}

func (sb *shardBackend) checkpoint() {
	sb.checkpointOpen("periodic")
	st := sb.m.Stats()
	log.Printf("provd: checkpoint sweep ok (open %d/%d known, %d evictions, %d mapped bytes)",
		st.OpenTenants, st.KnownTenants, st.Evictions, st.MappedBytes)
}

// checkpointOpen checkpoints every open store, each under its own pin,
// so eviction can slide between tenants but never under one.
func (sb *shardBackend) checkpointOpen(why string) {
	for _, id := range sb.m.OpenTenants() {
		h, err := sb.m.Get(id)
		if err != nil {
			continue // evicted or map closing; its WAL is durable anyway
		}
		if err := h.Checkpoint(); err != nil {
			log.Printf("provd: %s checkpoint tenant %s: %v", why, id, err)
		}
		h.Release()
	}
}

func (sb *shardBackend) close() error {
	sb.checkpointOpen("final")
	return sb.m.Close()
}

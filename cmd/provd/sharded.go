package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"browserprov/internal/capture"
	"browserprov/internal/event"
	"browserprov/internal/health"
	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
	"browserprov/internal/shardmap"
)

// tenantHeader routes captured exchanges to a tenant's history. The
// proxy strips it before the request goes upstream, so the origin never
// learns whose history it is feeding.
const tenantHeader = "X-Prov-Tenant"

// shardedConfig carries the flag values runSharded needs.
type shardedConfig struct {
	root            string
	cap             int
	listen          string
	adminLn         net.Listener     // bound by main; nil disables the admin endpoints
	sigc            <-chan os.Signal // SIGINT/SIGTERM, subscribed by main before startup
	searchHosts     []string
	defaultTenant   string
	checkpointEvery time.Duration
	scrubEvery      time.Duration
	batchSize       int
	flushEvery      time.Duration
	syncEvery       int
	noMmap          bool
}

// tenantPipe is one tenant's capture pipeline: an Observer feeding a
// per-tenant Batcher whose flush pins the tenant's store only for the
// duration of the ApplyBatch — between flushes the store is free to be
// LRU-evicted, which is what keeps 10k quiet tenants from pinning 10k
// stores open.
type tenantPipe struct {
	observer *capture.Observer
	flush    func() error
	batcher  *capture.Batcher // nil in per-event mode
}

// pipeRegistry lazily builds tenantPipes. Pipes are small (a buffer and
// two closures) and are kept for the process lifetime; the heavyweight
// per-tenant state — the store — lives behind the shard map's cap.
type pipeRegistry struct {
	mu    sync.Mutex
	pipes map[string]*tenantPipe

	m    *shardmap.Map
	cfg  *shardedConfig
	errs atomic.Uint64
}

func newPipeRegistry(m *shardmap.Map, cfg *shardedConfig) *pipeRegistry {
	return &pipeRegistry{pipes: make(map[string]*tenantPipe), m: m, cfg: cfg}
}

// apply delivers one tenant's batch: pin, group-commit, unpin. On the
// all-or-nothing validation sentinel it salvages per event, exactly like
// the single-store daemon.
func (pr *pipeRegistry) apply(tenant string, evs []*event.Event) error {
	h, err := pr.m.Get(tenant)
	if err != nil {
		return err
	}
	defer h.Release()
	err = h.ApplyBatch(evs)
	if err == nil || !errors.Is(err, provgraph.ErrInvalidBatch) {
		return err
	}
	var firstErr error
	for _, ev := range evs {
		if err := h.Apply(ev); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// get returns (building on first touch) the pipe for tenant. The tenant
// ID must already be validated.
func (pr *pipeRegistry) get(tenant string) *tenantPipe {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if p, ok := pr.pipes[tenant]; ok {
		return p
	}
	p := &tenantPipe{}
	if pr.cfg.batchSize > 1 {
		b := capture.NewBatcher(pr.cfg.batchSize, func(evs []*event.Event) error {
			return pr.apply(tenant, evs)
		})
		b.OnError = func(batch []*event.Event, err error) {
			log.Printf("provd: tenant %s: dropping %d captured events after failed retry: %v",
				tenant, len(batch), err)
		}
		p.observer = capture.NewObserver(pr.cfg.searchHosts, b.Add)
		p.flush = b.Flush
		p.batcher = b
	} else {
		p.observer = capture.NewObserver(pr.cfg.searchHosts, func(ev *event.Event) error {
			return pr.apply(tenant, []*event.Event{ev})
		})
		p.flush = func() error { return nil }
	}
	pr.pipes[tenant] = p
	return p
}

// droppedEvents sums the capture-loss counters across tenant pipes.
func (pr *pipeRegistry) droppedEvents() uint64 {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	var total uint64
	for _, p := range pr.pipes {
		if p.batcher != nil {
			total += p.batcher.Dropped()
		}
	}
	return total
}

// resolveSink is the ingest server's tenant resolver: it pins the
// tenant's store for the duration of one batch, exactly like a capture
// flush does.
func (pr *pipeRegistry) resolveSink(tenant string) (ingest.Sink, func(), error) {
	if tenant == "" {
		tenant = pr.cfg.defaultTenant
	}
	if err := shardmap.ValidateTenantID(tenant); err != nil {
		return nil, nil, err
	}
	h, err := pr.m.Get(tenant)
	if err != nil {
		return nil, nil, err
	}
	return h, h.Release, nil
}

// flushAll flushes every tenant's batcher, logging (not aborting on)
// per-tenant failures.
func (pr *pipeRegistry) flushAll(ctx string) {
	pr.mu.Lock()
	pipes := make(map[string]*tenantPipe, len(pr.pipes))
	for id, p := range pr.pipes {
		pipes[id] = p
	}
	pr.mu.Unlock()
	for id, p := range pipes {
		if err := p.flush(); err != nil {
			pr.errs.Add(1)
			log.Printf("provd: %s flush tenant %s: %v", ctx, id, err)
		}
	}
}

// route implements the proxy's per-request observer lookup: tenant from
// the X-Prov-Tenant header (the configured default when absent), header
// stripped so it never reaches the origin, invalid IDs rejected.
func (pr *pipeRegistry) route(r *http.Request) *capture.Observer {
	tenant := r.Header.Get(tenantHeader)
	r.Header.Del(tenantHeader)
	if tenant == "" {
		tenant = pr.cfg.defaultTenant
	}
	if shardmap.ValidateTenantID(tenant) != nil {
		return nil
	}
	return pr.get(tenant).observer
}

// shardStatsReply is the sharded /stats JSON shape: the global rollup.
type shardStatsReply struct {
	OpenTenants  int    `json:"open_tenants"`
	KnownTenants int    `json:"known_tenants"`
	Opens        uint64 `json:"opens"`
	Reopens      uint64 `json:"reopens"`
	Evictions    uint64 `json:"evictions"`
	// Aggregate checkpoint residency of the open set — the memory the
	// open-store cap bounds.
	MappedBytes   int64  `json:"mapped_bytes"`
	HeapLoadBytes int64  `json:"heap_load_bytes"`
	FlushErrors   uint64 `json:"flush_errors"`
	DroppedEvents uint64 `json:"dropped_events"`
	// Network ingest counters, global across tenants.
	Ingest ingest.ServerStats `json:"ingest"`
	// Self-healing state: tenants currently quarantined (with reasons),
	// lifetime quarantine/repair counters, and the degraded-mode latch.
	QuarantinedTenants []shardmap.QuarantineInfo `json:"quarantined_tenants,omitempty"`
	Quarantines        uint64                    `json:"quarantines"`
	Repairs            uint64                    `json:"repairs"`
	RepairFailures     uint64                    `json:"repair_failures"`
	ScrubSweeps        uint64                    `json:"scrub_sweeps"`
	Health             health.Status             `json:"health"`
}

// tenantStatsReply is the /stats/<tenant> JSON shape.
type tenantStatsReply struct {
	Tenant          string `json:"tenant"`
	Generation      uint64 `json:"generation"`
	Nodes           int    `json:"nodes"`
	Edges           int    `json:"edges"`
	SizeOnDisk      int64  `json:"size_on_disk_bytes"`
	CheckpointBytes int64  `json:"checkpoint_bytes"`
	WALBytes        int64  `json:"wal_bytes"`
	MappedBytes     int64  `json:"mapped_bytes"`
	HeapLoadBytes   int64  `json:"heap_load_bytes"`
}

// shardedAdminHandler serves /healthz, /readyz, POST /ingest (routed
// per tenant by X-Prov-Tenant), the global /stats rollup, and
// per-tenant detail at /stats/<tenant> (which touches — possibly opens —
// that tenant's store).
func shardedAdminHandler(m *shardmap.Map, pr *pipeRegistry, ing *ingest.Server, guard *health.Guard, sweeps *atomic.Uint64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := m.Stats()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok open=%d known=%d quarantined=%d\n", st.OpenTenants, st.KnownTenants, st.Quarantined)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if ing.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		if ing.Saturated() {
			http.Error(w, "ingest saturated", http.StatusServiceUnavailable)
			return
		}
		if bad, reason := guard.Degraded(); bad {
			http.Error(w, "read-only degraded mode: "+reason, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "ready\n")
	})
	mux.Handle("/ingest", ing)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		st := m.Stats()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(shardStatsReply{ //nolint:errcheck
			OpenTenants:        st.OpenTenants,
			KnownTenants:       st.KnownTenants,
			Opens:              st.Opens,
			Reopens:            st.Reopens,
			Evictions:          st.Evictions,
			MappedBytes:        st.MappedBytes,
			HeapLoadBytes:      st.HeapBytes,
			FlushErrors:        pr.errs.Load(),
			DroppedEvents:      pr.droppedEvents(),
			Ingest:             ing.Stats(),
			QuarantinedTenants: m.QuarantinedTenants(),
			Quarantines:        st.Quarantines,
			Repairs:            st.Repairs,
			RepairFailures:     st.RepairFailures,
			ScrubSweeps:        sweeps.Load(),
			Health:             guard.Status(),
		})
	})
	mux.HandleFunc("/stats/", func(w http.ResponseWriter, r *http.Request) {
		tenant := strings.TrimPrefix(r.URL.Path, "/stats/")
		ts, err := m.TenantStats(tenant)
		if err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, shardmap.ErrBadTenantID) {
				code = http.StatusBadRequest
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(tenantStatsReply{ //nolint:errcheck
			Tenant:          ts.Tenant,
			Generation:      ts.Generation,
			Nodes:           ts.Nodes,
			Edges:           ts.Edges,
			SizeOnDisk:      ts.SizeOnDisk,
			CheckpointBytes: ts.CheckpointBytes,
			WALBytes:        ts.WALBytes,
			MappedBytes:     ts.MappedBytes,
			HeapLoadBytes:   ts.HeapBytes,
		})
	})
	return mux
}

// runSharded is the multi-tenant daemon loop: one proxy, one shard map,
// per-tenant capture pipelines.
func runSharded(cfg *shardedConfig) {
	// RetainPrevCheckpoint arms per-tenant self-healing: a tenant whose
	// current checkpoint rots is quarantined by the scrub sweep and
	// repaired in place from the retained previous generation.
	m, err := shardmap.Open(cfg.root, shardmap.Options{
		MaxOpen: cfg.cap,
		Store:   provgraph.Options{SyncEvery: cfg.syncEvery, NoMmap: cfg.noMmap, RetainPrevCheckpoint: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	guard := &health.Guard{}
	stopProbe := guard.StartProbe(cfg.root, time.Second, logClear)
	defer stopProbe()
	pr := newPipeRegistry(m, cfg)
	ingestSrv := ingest.NewServer(pr.resolveSink, ingest.ServerOptions{
		Degraded: guard.Degraded,
		OnError: func(stage, tenant string, err error) {
			tripped := false
			if stage == "sync" {
				tripped = guard.ObserveSyncErr(err)
			} else {
				tripped = guard.ObserveApplyErr(err)
			}
			if tripped {
				log.Printf("provd: entering read-only degraded mode after %s failure (tenant %s): %v", stage, tenant, err)
			}
		},
		OnPanic: func(tenant string, v any) {
			guard.CountPanic()
			if tenant == "" {
				tenant = cfg.defaultTenant
			}
			// Repeated panics against one tenant's store smell like that
			// store, not the daemon: strike it toward quarantine + repair.
			n := m.Strike(tenant, fmt.Sprintf("panic in ingest: %v", v))
			log.Printf("provd: recovered panic in ingest batch (tenant %s, strike %d): %v", tenant, n, v)
		},
	})

	// The scrub sweep walks every open tenant store in bounded slices;
	// a store that fails is quarantined and handed to the repair worker
	// while every other tenant keeps serving.
	var sweeps atomic.Uint64
	stopScrub := startScrubTicker(cfg.scrubEvery, func() {
		clean, quarantined := m.ScrubSweep(scrubSliceBudget)
		sweeps.Add(1)
		if len(quarantined) > 0 {
			log.Printf("provd: scrub sweep: %d clean, quarantined %v (repair workers started)", clean, quarantined)
		}
	})
	defer stopScrub()

	proxy := recoverPanics(capture.NewRoutedProxy(pr.route), func(r *http.Request, v any) {
		guard.CountPanic()
		tenant := r.Header.Get(tenantHeader)
		if tenant == "" {
			tenant = cfg.defaultTenant
		}
		if shardmap.ValidateTenantID(tenant) == nil {
			n := m.Strike(tenant, fmt.Sprintf("panic in capture: %v", v))
			log.Printf("provd: recovered panic in proxy handler (tenant %s, strike %d): %v", tenant, n, v)
			return
		}
		log.Printf("provd: recovered panic in proxy handler (%s %s): %v", r.Method, r.URL, v)
	})

	srv := &http.Server{Addr: cfg.listen, Handler: proxy}
	go func() {
		log.Printf("provd: capturing on %s into %s (sharded, cap %d)", cfg.listen, cfg.root, cfg.cap)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	var adminSrv *http.Server
	if cfg.adminLn != nil {
		adminSrv = &http.Server{Handler: recoverPanics(
			shardedAdminHandler(m, pr, ingestSrv, guard, &sweeps),
			func(r *http.Request, v any) {
				guard.CountPanic()
				log.Printf("provd: recovered panic in admin handler (%s %s): %v", r.Method, r.URL, v)
			})}
		go serveAdmin(adminSrv, cfg.adminLn, "{healthz,readyz,stats,stats/<tenant>,ingest}")
	}

	// checkpointOpen dumps every currently open tenant store. Each
	// checkpoint runs under a fresh pin, so eviction can slide between
	// tenants but never under one.
	checkpointOpen := func(ctx string) {
		for _, id := range m.OpenTenants() {
			h, err := m.Get(id)
			if err != nil {
				continue // evicted or map closing; its WAL is durable anyway
			}
			if err := h.Checkpoint(); err != nil {
				log.Printf("provd: %s checkpoint tenant %s: %v", ctx, id, err)
			}
			h.Release()
		}
	}

	var ckptTick <-chan time.Time
	if cfg.checkpointEvery > 0 {
		ticker := time.NewTicker(cfg.checkpointEvery)
		defer ticker.Stop()
		ckptTick = ticker.C
	}
	flushTicker := time.NewTicker(cfg.flushEvery)
	defer flushTicker.Stop()
	var checkpointing atomic.Bool

	for {
		select {
		case <-flushTicker.C:
			pr.flushAll("periodic")
		case <-ckptTick:
			pr.flushAll("checkpoint")
			if !checkpointing.Swap(true) {
				go func() {
					defer checkpointing.Store(false)
					checkpointOpen("periodic")
					st := m.Stats()
					log.Printf("provd: checkpoint sweep ok (open %d/%d known, %d evictions, %d mapped bytes)",
						st.OpenTenants, st.KnownTenants, st.Evictions, st.MappedBytes)
				}()
			}
		case <-cfg.sigc:
			fmt.Println()
			log.Print("provd: shutting down")
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := srv.Shutdown(shutdownCtx); err != nil {
				log.Printf("provd: proxy shutdown: %v", err)
			}
			cancel()
			// Drain ingest before the admin listener goes away: in-flight
			// batches finish (each releases its shard pin), new ones 503.
			ingestSrv.Drain()
			if adminSrv != nil {
				adminSrv.Close()
			}
			pr.flushAll("final")
			checkpointOpen("final")
			if err := m.Close(); err != nil {
				log.Fatalf("provd: close: %v", err)
			}
			return
		}
	}
}

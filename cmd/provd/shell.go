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
	"sync"
	"sync/atomic"
	"time"

	"browserprov/internal/capture"
	"browserprov/internal/event"
	"browserprov/internal/health"
	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
)

// backend is what differs between provd's modes; the shell owns the
// rest. An error from healthz, ready or stats answers 503.
type backend interface {
	// tenant maps an X-Prov-Tenant value to a pipe key: captured and
	// ingested events for one key land in one store.
	tenant(header string) (key string, err error)
	// pin returns key's store, held open until release.
	pin(key string) (s sink, release func(), err error)
	// strike counts a recovered panic against key's store.
	strike(key, reason string)
	healthz() (line string, err error)
	ready() error // beyond the shell's drain, saturation and degraded checks
	stats(sh shellStats) (any, error)
	// routes mounts /ingest (ing, or the backend's own answer) and the
	// endpoints only this mode serves.
	routes(mux *http.ServeMux, ing http.Handler)
	scrub()
	checkpoint()
	close() error // after a final checkpoint
}

// sink is a pinned store: a *provgraph.Store or a shard handle.
type sink interface {
	ingest.Sink
	Apply(*event.Event) error
	ApplyBatch([]*event.Event) error
}

// oneTenant maps every request to the one store, whatever its tenant
// header, and keeps no strikes: a single store is repaired at restart.
type oneTenant struct{}

func (oneTenant) tenant(string) (string, error) { return "", nil }
func (oneTenant) strike(string, string)         {}

// Captured events are group-committed captureBatch at a time, and the
// journal fsyncs every captureSyncEvery commits, so a crash loses at
// most ~256 captured events (64 × 4). POST /ingest batches are fsynced
// before their ack whatever these are.
const (
	captureBatch     = 64
	captureSyncEvery = 4
)

// A background scrub sweep verifies in slices of scrubSliceBudget, short
// enough that a query landing behind one never notices, with
// scrubSlicePause between them to yield the section machinery to reads.
const (
	scrubSliceBudget = 2 * time.Millisecond
	scrubSlicePause  = time.Millisecond
)

// shellStats are the /stats fields the shell owns in every mode.
type shellStats struct {
	FlushErrors   uint64             `json:"flush_errors"`
	DroppedEvents uint64             `json:"dropped_events"` // lost after a batch and its retry failed
	Ingest        ingest.ServerStats `json:"ingest"`
	Health        health.Status      `json:"health"`
}

// shellConfig is what the shell needs beyond its backend.
type shellConfig struct {
	adminLn, proxyLn net.Listener     // bound by main; nil serves none
	sigc             <-chan os.Signal // subscribed by main before startup
	dir              string           // the volume the degraded-mode probe writes to
	searchHosts      []string
	flushEvery       time.Duration
	checkpointEvery  time.Duration // 0 disables periodic checkpoints
	scrubEvery       time.Duration // 0 disables the scrubber
}

// shell is the daemon around a backend.
type shell struct {
	shellConfig
	b         backend
	guard     *health.Guard
	ing       *ingest.Server
	pipes     sync.Map // pipe key -> *pipe
	flushErrs atomic.Uint64
}

// pipe is one key's capture pipeline: an Observer feeding a Batcher
// whose delivery pins the key's store only for one group commit, so
// between flushes a shard map may evict it.
type pipe struct {
	observer *capture.Observer
	batcher  *capture.Batcher
}

func newShell(b backend, cfg shellConfig) *shell {
	s := &shell{shellConfig: cfg, b: b, guard: &health.Guard{}}
	s.ing = ingest.NewServer(func(header string) (ingest.Sink, func(), error) {
		key, err := b.tenant(header)
		if err != nil {
			return nil, nil, err
		}
		sk, release, err := b.pin(key)
		return sk, release, err
	}, ingest.ServerOptions{
		Degraded: s.guard.Degraded,
		OnError:  s.observe,
		OnPanic:  func(header string, v any) { s.panicked("ingest batch", v, true, header) },
	})
	return s
}

// observe feeds a write-path failure to the degraded-mode latch: any
// fsync failure trips it, other failures only when the disk is full.
func (s *shell) observe(stage, key string, err error) {
	trip := s.guard.ObserveApplyErr
	if stage == "sync" {
		trip = s.guard.ObserveSyncErr
	}
	if trip(err) {
		log.Printf("provd: entering read-only degraded mode after %s failure (tenant %q): %v", stage, key, err)
	}
}

// panicked accounts a recovered panic: counted for /stats and, under a
// tenant's capture or ingest, struck against that tenant's store —
// repeated panics against one store smell like the store, not the
// daemon.
func (s *shell) panicked(where string, v any, tenanted bool, header string) {
	s.guard.CountPanic()
	log.Printf("provd: recovered panic in %s: %v", where, v)
	if key, err := s.b.tenant(header); tenanted && err == nil {
		s.b.strike(key, fmt.Sprintf("panic in %s: %v", where, v))
	}
}

// recoverPanics wraps next with per-request panic isolation: a panic
// answers 500 to its own request instead of unwinding the daemon.
// http.ErrAbortHandler is net/http's own control flow and re-raised.
func (s *shell) recoverPanics(next http.Handler, tenanted bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		header := r.Header.Get(ingest.TenantHeader) // route deletes it
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.panicked(fmt.Sprintf("%s %s", r.Method, r.URL), v, tenanted, header)
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// applySalvaging group-commits evs. ApplyBatch validates all-or-nothing,
// so on the validation sentinel it falls back to per-event Apply and
// drops only the events that fail alone: one malformed captured event
// must not discard its valid neighbours. Only that sentinel is safe to
// retry this way — after an I/O error a prefix of the batch is already
// applied and logged, and re-applying would duplicate history.
func applySalvaging(sk sink, evs []*event.Event) error {
	err := sk.ApplyBatch(evs)
	if !errors.Is(err, provgraph.ErrInvalidBatch) {
		return err
	}
	var firstErr error
	for _, ev := range evs {
		if err := sk.Apply(ev); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// deliver is a capture pipe's batch sink: pin, group-commit, unpin,
// with failures fed to the degraded-mode latch.
func (s *shell) deliver(key string, evs []*event.Event) error {
	sk, release, err := s.b.pin(key)
	if err == nil {
		err = applySalvaging(sk, evs)
		release()
	}
	if err != nil {
		s.observe("capture", key, err)
	}
	return err
}

// pipe returns key's capture pipe, building it on first use. Pipes live
// as long as the process; the stores behind them are the backend's.
func (s *shell) pipe(key string) *pipe {
	if p, ok := s.pipes.Load(key); ok {
		return p.(*pipe)
	}
	b := capture.NewBatcher(captureBatch, func(evs []*event.Event) error { return s.deliver(key, evs) })
	b.OnError = func(batch []*event.Event, err error) {
		log.Printf("provd: tenant %q: dropping %d captured events after failed retry: %v", key, len(batch), err)
	}
	p, _ := s.pipes.LoadOrStore(key, &pipe{observer: capture.NewObserver(s.searchHosts, b.Add), batcher: b})
	return p.(*pipe)
}

// route is the capture proxy's per-request observer lookup. The tenant
// header is stripped in every mode, so the origin never learns whose
// history it feeds; an invalid tenant is refused with 400.
func (s *shell) route(r *http.Request) *capture.Observer {
	key, err := s.b.tenant(r.Header.Get(ingest.TenantHeader))
	r.Header.Del(ingest.TenantHeader)
	if err != nil {
		return nil
	}
	return s.pipe(key).observer
}

// flush delivers every pipe's buffered events.
func (s *shell) flush(why string) {
	s.pipes.Range(func(key, p any) bool {
		if err := p.(*pipe).batcher.Flush(); err != nil {
			s.flushErrs.Add(1)
			log.Printf("provd: %s flush tenant %q: %v", why, key, err)
		}
		return true
	})
}

// shellStats snapshots the fields the shell owns.
func (s *shell) shellStats() shellStats {
	st := shellStats{FlushErrors: s.flushErrs.Load(), Ingest: s.ing.Stats(), Health: s.guard.Status()}
	s.pipes.Range(func(_, p any) bool {
		st.DroppedEvents += p.(*pipe).batcher.Dropped()
		return true
	})
	return st
}

// ready is /readyz.
func (s *shell) ready() error {
	if s.ing.Draining() {
		return errors.New("draining")
	}
	if s.ing.Saturated() {
		return errors.New("ingest saturated")
	}
	if bad, reason := s.guard.Degraded(); bad {
		return errors.New("read-only degraded mode: " + reason)
	}
	return s.b.ready()
}

// admin is the admin listener's handler. Liveness and readiness are
// distinct on purpose: /healthz answers "restart me?", /readyz "send me
// work?" — it goes 503 while the daemon drains, so load balancers steer
// batches elsewhere without the orchestrator killing a healthy process.
func (s *shell) admin() http.Handler {
	mux := http.NewServeMux()
	// handle serves get's text line or JSON reply, or 503 with its error.
	handle := func(path string, get func() (any, error)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			reply, err := get()
			if err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			} else if line, ok := reply.(string); ok {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				fmt.Fprintln(w, line)
			} else {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(reply) //nolint:errcheck // the client went away
			}
		})
	}
	handle("/healthz", func() (any, error) { return s.b.healthz() })
	handle("/readyz", func() (any, error) { return "ready", s.ready() })
	handle("/stats", func() (any, error) { return s.b.stats(s.shellStats()) })
	s.b.routes(mux, s.ing)
	return s.recoverPanics(mux, false)
}

// serve runs the daemon until a signal arrives, then drains. The
// degraded-mode latch clears when its probe sees the volume accept
// durable writes again.
func (s *shell) serve() {
	defer s.guard.StartProbe(s.dir, time.Second, logClear)()
	var proxySrv, adminSrv *http.Server
	if s.proxyLn != nil {
		proxySrv = &http.Server{Handler: s.recoverPanics(capture.NewRoutedProxy(s.route), true)}
		go func() {
			if err := proxySrv.Serve(s.proxyLn); err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
	}
	if s.adminLn != nil {
		adminSrv = &http.Server{Handler: s.admin()}
		go func() {
			if err := adminSrv.Serve(s.adminLn); err != http.ErrServerClosed {
				log.Printf("provd: admin listener: %v (continuing without probes)", err)
			}
		}()
	}

	flushTick, ckptTick, scrubTick := every(s.flushEvery), every(s.checkpointEvery), every(s.scrubEvery)
	// Checkpoints and scrub sweeps run off the loop, so flush ticks keep
	// bounding the pipes' at-risk window meanwhile; a tick that finds
	// the previous run still going is skipped.
	var checkpointing, scrubbing atomic.Bool
	background := func(running *atomic.Bool, f func()) {
		if !running.Swap(true) {
			go func() {
				defer running.Store(false)
				f()
			}()
		}
	}
	for {
		select {
		case <-flushTick:
			s.flush("periodic")
		case <-ckptTick:
			s.flush("checkpoint")
			background(&checkpointing, s.b.checkpoint)
		case <-scrubTick:
			background(&scrubbing, s.b.scrub)
		case <-s.sigc:
			fmt.Println()
			log.Print("provd: shutting down")
			s.drain(proxySrv, adminSrv)
			return
		}
	}
}

// drain stops the daemon in dependency order. In-flight proxy handlers
// finish first: an event captured after the final flush would never
// reach the WAL. Ingest drains before the admin listener closes, so new
// batches get 503 while in-flight ones reach their fsynced ack. Then
// every pipe flushes, and the backend checkpoints and closes.
func (s *shell) drain(proxySrv, adminSrv *http.Server) {
	if proxySrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := proxySrv.Shutdown(ctx); err != nil {
			log.Printf("provd: proxy shutdown: %v", err)
		}
		cancel()
	}
	s.ing.Drain()
	if adminSrv != nil {
		adminSrv.Close()
	}
	s.flush("final")
	if err := s.b.close(); err != nil {
		log.Fatalf("provd: close: %v", err)
	}
}

// every ticks every d for the life of the process; d <= 0 never ticks.
func every(d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	return time.NewTicker(d).C
}

// logClear announces the degraded-mode probe's recovery.
func logClear(downFor time.Duration) {
	log.Printf("provd: disk probe succeeded; leaving read-only degraded mode (degraded for %s)",
		downFor.Round(time.Second))
}

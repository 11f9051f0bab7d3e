// Command provd is the capture daemon: an HTTP forward proxy that
// records browsing provenance into a store directory while relaying
// traffic. Point a browser (or curl -x) at it:
//
//	provd -dir ./history -listen 127.0.0.1:8888 &
//	curl -x http://127.0.0.1:8888 http://example.com/
//	curl http://127.0.0.1:8889/stats
//	provquery -dir ./history search example
//
// Beside the proxy it serves a small admin endpoint for deployment
// probes and network ingest: GET /healthz answers 200 while the daemon
// is live, GET /readyz answers 200 only while it is accepting work
// (503 while draining or with the ingest queue saturated), POST
// /ingest accepts idempotent event batches over the versioned JSON
// wire protocol (see internal/ingest), and GET /stats reports
// node/edge counts, the store generation, ingest counters and the size
// on disk as JSON — stats are served off a snapshot-pinned query View,
// so a probe never contends with capture traffic. The admin address is
// bound before anything else starts, in every mode: if it is taken,
// provd exits non-zero at once (-admin "" runs without it).
//
// HTTPS CONNECT tunnels are relayed but not observed (encrypted traffic
// carries no provenance the proxy can see); plain-HTTP browsing is fully
// captured: referrer chains, redirects, downloads, search queries and
// page titles.
//
// With -shard-root instead of -dir the daemon runs multi-tenant: the
// X-Prov-Tenant request header routes each captured exchange into that
// tenant's independent history under the shard root (stripped before
// the request goes upstream), at most -shard-cap tenant stores stay
// open at once (LRU-evicted, reopened on next touch), /stats serves the
// global rollup and /stats/<tenant> per-tenant detail:
//
//	provd -shard-root ./shards -shard-cap 128 -listen 127.0.0.1:8888 &
//	curl -x http://127.0.0.1:8888 -H 'X-Prov-Tenant: alice' http://example.com/
//	curl http://127.0.0.1:8889/stats/alice
//
// With -follow the daemon runs as a read-only WAL-shipping replica of
// another provd's admin endpoint: it bootstraps from the leader's
// checkpoint, tails its WAL stream (see internal/replica), and serves
// the same admin surface off the local copy — /readyz answers 503 once
// replication lag exceeds -max-lag, /ingest answers 503 with a
// Location header naming the leader, and /stats reports applied LSN,
// lag and re-bootstrap counts. The leader needs no flags: every
// single-tenant provd serves the replication endpoints.
//
//	provd -follow http://leader:8889 -dir ./replica -admin 127.0.0.1:9889 &
//	curl http://127.0.0.1:9889/stats
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"browserprov/internal/capture"
	"browserprov/internal/event"
	"browserprov/internal/health"
	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
	"browserprov/internal/replica"
	"browserprov/internal/shardmap"
)

// statsReply is the /stats JSON shape.
type statsReply struct {
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	Pages      int    `json:"pages"`
	Visits     int    `json:"visits"`
	Downloads  int    `json:"downloads"`
	Bookmarks  int    `json:"bookmarks"`
	Terms      int    `json:"terms"`
	Forms      int    `json:"forms"`
	SizeOnDisk int64  `json:"size_on_disk_bytes"`
	// Checkpoint health: how big the last columnar checkpoint is, how
	// much WAL tail a crash would have to replay over it, and how stale
	// it is (-1 when the store has never checkpointed).
	CheckpointBytes   int64   `json:"checkpoint_bytes"`
	WALBytes          int64   `json:"wal_bytes"`
	LastCheckpointAge float64 `json:"last_checkpoint_age_seconds"`
	// Checkpoint residency: bytes served straight off the file mapping
	// versus bytes copied onto the heap at open (or by a later thaw).
	MappedBytes   int64 `json:"mapped_bytes"`
	HeapLoadBytes int64 `json:"heap_load_bytes"`
	// Capture-loss accounting: events dropped after a batch delivery
	// and its one retry both failed.
	DroppedEvents uint64 `json:"dropped_events"`
	// Network ingest counters (see internal/ingest.ServerStats).
	Ingest ingest.ServerStats `json:"ingest"`
	// Dedup window occupancy (ingest idempotency state).
	DedupWindow int `json:"dedup_window"`
	// Replication state: the leader's per-follower stream accounting, or
	// this follower's own progress. Absent on a sharded daemon.
	Replication *replicationReply `json:"replication,omitempty"`
	// Self-healing state: cumulative online integrity-scrub counters and
	// the degraded-mode latch (disk-full/fsync trips, recovered panics).
	Scrub  provgraph.ScrubStatus `json:"scrub"`
	Health health.Status         `json:"health"`
}

// replicationReply is the replication section of /stats. Exactly one of
// Followers (leader) or Follower (replica) is populated.
type replicationReply struct {
	Role      string                            `json:"role"`
	Instance  string                            `json:"instance,omitempty"`
	Followers map[string]replica.FollowerStream `json:"followers,omitempty"`
	Follower  *replica.FollowerStats            `json:"follower,omitempty"`
}

// coreStats assembles the snapshot-consistent fields of a /stats reply:
// every count comes from the one pinned snapshot behind v (only the disk
// size is a live read — the checkpoint file is not part of the epoch).
func coreStats(store *provgraph.Store, v *query.View) statsReply {
	sn := v.Snapshot()
	ck := store.CheckpointInfo()
	age := -1.0
	if !ck.LastAt.IsZero() {
		age = time.Since(ck.LastAt).Seconds()
	}
	mi := store.MappedInfo()
	st := sn.Stats()
	return statsReply{
		Generation:        v.Generation(),
		Nodes:             st.Nodes,
		Edges:             st.Edges,
		Pages:             st.Pages,
		Visits:            st.Visits,
		Downloads:         st.Downloads,
		Bookmarks:         st.Bookmarks,
		Terms:             st.Terms,
		Forms:             st.Forms,
		SizeOnDisk:        store.SizeOnDisk(),
		CheckpointBytes:   ck.Bytes,
		WALBytes:          ck.WALBytes,
		LastCheckpointAge: age,
		MappedBytes:       mi.MappedBytes,
		HeapLoadBytes:     mi.HeapBytes,
		DedupWindow:       store.DedupWindowLen(),
	}
}

// adminHandler serves the probe endpoints, /stats and POST /ingest.
// Stats come off a fresh View per request: every field of a reply comes
// from the one pinned snapshot (only the disk size is a live read — the
// checkpoint file is not part of the epoch), so the counts are
// internally consistent under capture load.
//
// Liveness and readiness are distinct on purpose: /healthz answers
// "restart me?" (the process and its store are functional), /readyz
// answers "send me work?" — it goes 503 while the daemon drains for
// shutdown or the ingest queue is saturated, so load balancers steer
// batches elsewhere without the orchestrator killing a healthy process
// mid-drain.
func adminHandler(store *provgraph.Store, eng *query.Engine, ing *ingest.Server, dropped func() uint64, repl *replica.Server, guard *health.Guard) http.Handler {
	mux := http.NewServeMux()
	if repl != nil {
		// Leader side of replication rides the same listener: followers
		// read /replica/meta, bootstrap from /checkpoint/<gen> and tail
		// /wal/stream (see internal/replica).
		repl.Register(mux)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		v := eng.View()
		if err := v.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok gen=%d\n", v.Generation())
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
		// Degraded (read-only) means "stop sending write work": reads
		// still serve off /stats and the query surface, but a load
		// balancer routing ingest batches should steer them elsewhere.
		if bad, reason := guard.Degraded(); bad {
			http.Error(w, "read-only degraded mode: "+reason, http.StatusServiceUnavailable)
			return
		}
		if err := eng.View().Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "ready\n")
	})
	mux.Handle("/ingest", ing)
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		v := eng.View()
		if err := v.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		reply := coreStats(store, v)
		reply.DroppedEvents = dropped()
		reply.Ingest = ing.Stats()
		reply.Scrub = store.ScrubStatus()
		reply.Health = guard.Status()
		if repl != nil {
			reply.Replication = &replicationReply{
				Role: "leader", Instance: repl.Instance(), Followers: repl.Followers(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(reply); err != nil {
			log.Printf("provd: stats encode: %v", err)
		}
	})
	return mux
}

// serveAdmin serves srv on the admin listener main bound at startup. A
// serve error after that must not take the rest of the daemon down with
// it: it is logged and the daemon keeps running without probes.
func serveAdmin(srv *http.Server, ln net.Listener, endpoints string) {
	log.Printf("provd: admin endpoints on http://%s/%s", ln.Addr(), endpoints)
	if err := srv.Serve(ln); err != http.ErrServerClosed {
		log.Printf("provd: admin listener: %v (continuing without probes)", err)
	}
}

func main() {
	dir := flag.String("dir", "", "provenance store directory (single-tenant mode)")
	shardRoot := flag.String("shard-root", "", "multi-tenant shard root directory (enables sharded mode; exclusive with -dir)")
	shardCap := flag.Int("shard-cap", shardmap.DefaultMaxOpen, "max concurrently open tenant stores in sharded mode")
	defaultTenant := flag.String("default-tenant", "default",
		"tenant for capture requests without an "+tenantHeader+" header")
	listen := flag.String("listen", "127.0.0.1:8888", "proxy listen address")
	admin := flag.String("admin", "127.0.0.1:8889", "admin (healthz/stats) listen address; empty disables")
	searchHosts := flag.String("search-hosts", "search.example,www.google.com,duckduckgo.com,www.bing.com",
		"comma-separated hosts whose q= parameter is a web search")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Minute,
		"periodic background checkpoint interval (0 disables; capture is never blocked for the dump)")
	scrubEvery := flag.Duration("scrub-every", time.Minute,
		"online integrity-scrub sweep interval: checkpoint section CRCs and WAL frame CRCs re-verified in background slices (0 disables)")
	batchSize := flag.Int("batch", 64, "group-commit batch size (1 = one commit per captured event)")
	flushEvery := flag.Duration("flush", time.Second, "max delay before buffered events are group-committed")
	useMmap := flag.Bool("mmap", true, "serve the checkpoint off a file mapping (false reads it onto the heap)")
	follow := flag.String("follow", "",
		"leader base URL; run as a read-only WAL-shipping replica of it (requires -dir, exclusive with -shard-root)")
	maxLag := flag.Duration("max-lag", 15*time.Second,
		"replication lag above which a follower's /readyz answers 503")
	flag.Parse()
	if (*dir == "") == (*shardRoot == "") {
		log.Fatal("provd: exactly one of -dir (single-tenant) or -shard-root (sharded) is required")
	}
	if *follow != "" && *shardRoot != "" {
		log.Fatal("provd: -follow replicates a single store; it is exclusive with -shard-root")
	}

	// Catch SIGTERM before anything can answer a probe: a supervisor
	// that sees /readyz may stop the daemon at once, and that stop must
	// drain and checkpoint, not kill. Each mode's loop receives it, so a
	// stop sent during startup (store open, follower bootstrap) takes
	// effect, gracefully, once startup is done.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	// Bind the admin listener before any mode starts: probes that can
	// never answer leave a supervisor waiting on /readyz for nothing, so
	// a taken address is a startup failure, not a warning.
	var adminLn net.Listener
	if *admin != "" {
		ln, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("provd: admin listener: %v", err)
		}
		adminLn = ln
	}

	// The journal fsyncs every SyncEvery commits, and a batch is one
	// commit: shrink the window by the batch size so the crash-loss
	// bound stays ~256 events no matter how events are grouped.
	syncEvery := 0 // journal default (256 commits) for per-event mode
	if *batchSize > 1 {
		syncEvery = 256 / *batchSize
		if syncEvery < 1 {
			syncEvery = 1
		}
	}
	if *follow != "" {
		runFollower(&followerConfig{
			dir:             *dir,
			leaderURL:       strings.TrimRight(*follow, "/"),
			adminLn:         adminLn,
			sigc:            sigc,
			maxLag:          *maxLag,
			checkpointEvery: *checkpointEvery,
			scrubEvery:      *scrubEvery,
			syncEvery:       syncEvery,
			noMmap:          !*useMmap,
		})
		return
	}
	if *shardRoot != "" {
		runSharded(&shardedConfig{
			root:            *shardRoot,
			cap:             *shardCap,
			listen:          *listen,
			adminLn:         adminLn,
			sigc:            sigc,
			searchHosts:     strings.Split(*searchHosts, ","),
			defaultTenant:   *defaultTenant,
			checkpointEvery: *checkpointEvery,
			scrubEvery:      *scrubEvery,
			batchSize:       *batchSize,
			flushEvery:      *flushEvery,
			syncEvery:       syncEvery,
			noMmap:          !*useMmap,
		})
		return
	}
	// RetainPrevCheckpoint keeps the previous checkpoint generation (and
	// the WAL back to its fence) on disk, so a corrupt current checkpoint
	// is repairable in place instead of fatal — the daemon always opts
	// into self-healing retention.
	storeOpts := provgraph.Options{SyncEvery: syncEvery, NoMmap: !*useMmap, RetainPrevCheckpoint: true}
	store, err := provgraph.OpenWith(*dir, storeOpts)
	if err != nil {
		// Self-healing open: a corrupt current checkpoint falls back to
		// the retained previous generation + WAL replay before giving up.
		log.Printf("provd: store open failed (%v); attempting repair", err)
		rep, rerr := provgraph.RepairStore(*dir)
		if rerr != nil {
			log.Fatalf("provd: repair: %v (original open error: %v)", rerr, err)
		}
		if rep.FellBack {
			log.Printf("provd: repaired: fell back to checkpoint gen %d, %d WAL frames intact", rep.PrevGen, rep.WALFrames)
		}
		if store, err = provgraph.OpenWith(*dir, storeOpts); err != nil {
			log.Fatal(err)
		}
	}

	// The degraded-mode latch: trips on disk-full/fsync failures from
	// any write path, gates ingest writes at 503, auto-clears when the
	// background probe sees the volume accept durable writes again.
	guard := &health.Guard{}
	stopProbe := guard.StartProbe(*dir, time.Second, logClear)
	defer stopProbe()

	// Captured events ride the batched group-commit ingest: one lock
	// acquisition and at most one fsync per batch, flushed on a timer
	// so a quiet proxy still bounds the at-risk window.
	var batcher *capture.Batcher
	sink := capture.Sink(store.Apply)
	if *batchSize > 1 {
		// Salvage on batch rejection: ApplyBatch validates all-or-nothing,
		// so one malformed captured event must not discard its 63 valid
		// neighbors — fall back to per-event Apply and drop only the
		// events that individually fail. Only the validation sentinel is
		// safe to retry this way: after an I/O error a prefix of the
		// batch is already applied and logged, and re-applying would
		// duplicate history.
		batcher = capture.NewBatcher(*batchSize, func(evs []*event.Event) error {
			err := store.ApplyBatch(evs)
			if err == nil || !errors.Is(err, provgraph.ErrInvalidBatch) {
				return err
			}
			var firstErr error
			for _, ev := range evs {
				if err := store.Apply(ev); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			return firstErr
		})
		batcher.OnError = func(batch []*event.Event, err error) {
			guard.ObserveApplyErr(err)
			log.Printf("provd: dropping %d captured events after failed retry: %v", len(batch), err)
		}
		sink = batcher.Add
	} else {
		// Per-event mode: watch apply errors directly for disk-full trips.
		base := sink
		sink = func(ev *event.Event) error {
			err := base(ev)
			guard.ObserveApplyErr(err)
			return err
		}
	}
	dropped := func() uint64 {
		if batcher == nil {
			return 0
		}
		return batcher.Dropped()
	}
	flush := func(ctx string) {
		if batcher == nil {
			return
		}
		if err := batcher.Flush(); err != nil {
			log.Printf("provd: %s flush: %v", ctx, err)
		}
	}
	observer := capture.NewObserver(strings.Split(*searchHosts, ","), sink)
	proxy := capture.NewProxy(observer)

	srv := &http.Server{Addr: *listen, Handler: recoverPanics(proxy, func(r *http.Request, v any) {
		guard.CountPanic()
		log.Printf("provd: recovered panic in proxy handler (%s %s): %v", r.Method, r.URL, v)
	})}
	go func() {
		log.Printf("provd: capturing on %s into %s", *listen, *dir)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	// Network ingest rides the admin listener: single-tenant mode
	// resolves every batch (whatever its tenant header) to the one
	// store. Sink failures feed the degraded latch; recovered batch
	// panics are counted and answer 500.
	ingestSrv := ingest.NewServer(func(string) (ingest.Sink, func(), error) {
		return store, func() {}, nil
	}, ingest.ServerOptions{
		Degraded: guard.Degraded,
		OnError: func(stage, _ string, err error) {
			tripped := false
			if stage == "sync" {
				tripped = guard.ObserveSyncErr(err)
			} else {
				tripped = guard.ObserveApplyErr(err)
			}
			if tripped {
				log.Printf("provd: entering read-only degraded mode after %s failure: %v", stage, err)
			}
		},
		OnPanic: func(_ string, v any) {
			guard.CountPanic()
			log.Printf("provd: recovered panic in ingest batch: %v", v)
		},
	})

	// The online scrubber: re-verify checkpoint section CRCs and WAL
	// frame CRCs in bounded slices. A dirty sweep is loud — single-tenant
	// repair needs the store closed, so the operator (or the next
	// restart) runs the repair; /stats carries the failure meanwhile.
	stopScrub := startScrubTicker(*scrubEvery, func() {
		if err := store.Scrub(scrubSliceBudget, scrubSlicePause); err != nil && !errors.Is(err, provgraph.ErrClosed) {
			log.Printf("provd: INTEGRITY SCRUB FAILED (restart repairs from retained checkpoint): %v", err)
		}
	})
	defer stopScrub()

	var adminSrv *http.Server
	if adminLn != nil {
		eng := query.NewEngine(store, query.Options{})
		replSrv := replica.NewServer(store)
		adminSrv = &http.Server{Handler: recoverPanics(
			adminHandler(store, eng, ingestSrv, dropped, replSrv, guard),
			func(r *http.Request, v any) {
				guard.CountPanic()
				log.Printf("provd: recovered panic in admin handler (%s %s): %v", r.Method, r.URL, v)
			})}
		go serveAdmin(adminSrv, adminLn, "{healthz,readyz,stats,ingest,wal/stream}")
	}

	var ckptTick <-chan time.Time
	if *checkpointEvery > 0 {
		ticker := time.NewTicker(*checkpointEvery)
		defer ticker.Stop()
		ckptTick = ticker.C
	}
	flushTicker := time.NewTicker(*flushEvery)
	defer flushTicker.Stop()
	var checkpointing atomic.Bool

	for {
		select {
		case <-flushTicker.C:
			flush("periodic")
		case <-ckptTick:
			flush("checkpoint")
			// The dump streams in the background and the store serialises
			// checkpoints internally; run it off the event loop so flush
			// ticks keep bounding the batcher's at-risk window meanwhile.
			if !checkpointing.Swap(true) {
				go func() {
					defer checkpointing.Store(false)
					if err := store.Checkpoint(); err != nil {
						log.Printf("provd: checkpoint: %v", err)
						return
					}
					sn, ck := store.Snapshot(), store.CheckpointInfo()
					log.Printf("provd: checkpoint ok (%d nodes, %d edges, %d checkpoint bytes, %d sink errors)",
						sn.NumNodes(), sn.NumEdges(), ck.Bytes, observer.Errs())
				}()
			}
		case <-sigc:
			fmt.Println()
			log.Print("provd: shutting down")
			// Drain in-flight proxy handlers before the final flush:
			// Close() would return with handlers still observing, and an
			// event Added after the flush would never reach the WAL.
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := srv.Shutdown(shutdownCtx); err != nil {
				log.Printf("provd: proxy shutdown: %v", err)
			}
			cancel()
			// Drain ingest before tearing the admin listener down: new
			// batches get 503 (and /readyz already answers not-ready)
			// while in-flight ones finish and reach their fsynced ack.
			ingestSrv.Drain()
			if adminSrv != nil {
				adminSrv.Close()
			}
			flush("final")
			if err := store.Checkpoint(); err != nil {
				log.Printf("provd: final checkpoint: %v", err)
			}
			if err := store.Close(); err != nil {
				log.Fatalf("provd: close: %v", err)
			}
			return
		}
	}
}

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
	"sync/atomic"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
	"browserprov/internal/replica"
)

// followerConfig carries the flag values for -follow mode.
type followerConfig struct {
	dir             string
	leaderURL       string
	adminLn         net.Listener     // bound by main; nil disables the admin endpoints
	sigc            <-chan os.Signal // SIGINT/SIGTERM, subscribed by main before startup
	maxLag          time.Duration
	checkpointEvery time.Duration
	scrubEvery      time.Duration
	syncEvery       int
	noMmap          bool
}

// runFollower runs the daemon as a read-only WAL-shipping replica: it
// bootstraps the local store from the leader's checkpoint, tails the
// leader's WAL stream, and serves the admin query surface off the local
// copy. There is no capture proxy — a replica records nothing of its
// own — and /ingest answers 503 with a Location pointing at the leader.
//
// Readiness is lag-gated: /readyz answers 503 once the follower has
// been behind the leader for longer than -max-lag, so load balancers
// stop routing reads that need freshness to a stale replica while
// /healthz keeps answering 200 (stale is degraded, not broken).
func runFollower(cfg *followerConfig) {
	// The query engine must track the store across re-bootstraps: a
	// leader divergence replaces the store wholesale, and every request
	// after the swap has to see the replacement.
	var qeng atomic.Pointer[query.Engine]
	f, err := replica.NewFollower(replica.FollowerOptions{
		Dir:             cfg.dir,
		LeaderURL:       cfg.leaderURL,
		CheckpointEvery: cfg.checkpointEvery,
		Store:           provgraph.Options{SyncEvery: cfg.syncEvery, NoMmap: cfg.noMmap},
		OnSwap: func(_, next *provgraph.Store) {
			qeng.Store(query.NewEngine(next, query.Options{}))
			log.Print("provd: follower re-bootstrapped; query engine rebuilt")
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("provd: follower: %v", err)
	}
	qeng.Store(query.NewEngine(f.Store(), query.Options{}))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := f.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("provd: follower stream loop: %v", err)
		}
	}()

	// Follower self-healing is re-fetching: a replica's data is
	// reproducible from its leader, so a scrub failure skips local
	// repair and forces a wholesale re-bootstrap.
	stopScrub := startScrubTicker(cfg.scrubEvery, func() {
		if err := f.Store().Scrub(scrubSliceBudget, scrubSlicePause); err != nil &&
			!errors.Is(err, provgraph.ErrClosed) {
			log.Printf("provd: follower scrub failed (%v); forcing re-bootstrap from leader", err)
			f.ForceRebootstrap()
		}
	})
	defer stopScrub()

	var adminSrv *http.Server
	if cfg.adminLn != nil {
		adminSrv = &http.Server{Handler: recoverPanics(followerHandler(f, &qeng, cfg),
			func(r *http.Request, v any) {
				log.Printf("provd: recovered panic in follower admin handler (%s %s): %v", r.Method, r.URL, v)
			})}
		go serveAdmin(adminSrv, cfg.adminLn, "{healthz,readyz,stats} (read-only follower)")
	}
	log.Printf("provd: following %s into %s (capture proxy disabled on replicas)", cfg.leaderURL, cfg.dir)

	<-cfg.sigc
	fmt.Println()
	log.Print("provd: follower shutting down")
	cancel()
	<-done
	if adminSrv != nil {
		adminSrv.Close()
	}
	if err := f.Store().Close(); err != nil && !errors.Is(err, provgraph.ErrClosed) {
		log.Fatalf("provd: close: %v", err)
	}
}

// followerHandler serves a replica's admin surface: probes, stats and
// the ingest redirect. Loading engine and store together from the one
// atomic pointer keeps each request on a consistent pair even while a
// re-bootstrap swaps them underneath.
func followerHandler(f *replica.Follower, qeng *atomic.Pointer[query.Engine], cfg *followerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		v := qeng.Load().View()
		if err := v.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "ok gen=%d role=follower\n", v.Generation())
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := qeng.Load().View().Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if st := f.Stats(); st.LagSeconds > cfg.maxLag.Seconds() {
			http.Error(w, fmt.Sprintf("replication lag %.1fs exceeds %s (applied lsn %d, leader %d)",
				st.LagSeconds, cfg.maxLag, st.AppliedLSN, st.LeaderNextLSN), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "ready\n")
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", cfg.leaderURL+"/ingest")
		http.Error(w, "read-only replica; ingest at the leader", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		eng := qeng.Load()
		v := eng.View()
		if err := v.Err(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		reply := coreStats(eng.Store(), v)
		reply.Scrub = eng.Store().ScrubStatus()
		fst := f.Stats()
		reply.Replication = &replicationReply{Role: "follower", Follower: &fst}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(reply); err != nil {
			log.Printf("provd: stats encode: %v", err)
		}
	})
	return mux
}

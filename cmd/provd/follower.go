package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
	"browserprov/internal/replica"
)

// followerBackend is -follow mode: a read-only WAL-shipping replica of
// another provd, bootstrapped from its checkpoint and tailing its WAL.
// It records nothing of its own: main binds no proxy, and /ingest
// answers 503 with a Location naming the leader. /readyz answers 503
// once it has lagged the leader for longer than maxLag, while /healthz
// stays 200: stale is degraded, not broken.
type followerBackend struct {
	oneTenant
	f *replica.Follower
	// eng follows the store across re-bootstraps, which replace it.
	eng       atomic.Pointer[query.Engine]
	leaderURL string
	maxLag    time.Duration
	stop      context.CancelFunc
	done      chan struct{}
}

// newFollowerBackend opens or bootstraps the replica and starts tailing.
func newFollowerBackend(opts replica.FollowerOptions, maxLag time.Duration) (*followerBackend, error) {
	fb := &followerBackend{leaderURL: opts.LeaderURL, maxLag: maxLag, done: make(chan struct{})}
	opts.OnSwap = func(_, next *provgraph.Store) {
		fb.eng.Store(query.NewEngine(next, query.Options{}))
		log.Print("provd: follower re-bootstrapped; query engine rebuilt")
	}
	f, err := replica.NewFollower(opts)
	if err != nil {
		return nil, fmt.Errorf("follower: %w", err)
	}
	fb.f = f
	fb.eng.Store(query.NewEngine(f.Store(), query.Options{}))
	var ctx context.Context
	ctx, fb.stop = context.WithCancel(context.Background())
	go func() {
		defer close(fb.done)
		if err := f.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			log.Printf("provd: follower stream loop: %v", err)
		}
	}()
	log.Printf("provd: following %s into %s", opts.LeaderURL, opts.Dir)
	return fb, nil
}

var errReplica = errors.New("read-only replica; ingest at the leader")

func (fb *followerBackend) pin(string) (sink, func(), error) { return nil, nil, errReplica }

func (fb *followerBackend) healthz() (string, error) {
	v := fb.eng.Load().View()
	return fmt.Sprintf("ok gen=%d role=follower", v.Generation()), v.Err()
}

func (fb *followerBackend) ready() error {
	if err := fb.eng.Load().View().Err(); err != nil {
		return err
	}
	if st := fb.f.Stats(); st.LagSeconds > fb.maxLag.Seconds() {
		return fmt.Errorf("replication lag %.1fs exceeds %s (applied lsn %d, leader %d)",
			st.LagSeconds, fb.maxLag, st.AppliedLSN, st.LeaderNextLSN)
	}
	return nil
}

func (fb *followerBackend) stats(sh shellStats) (any, error) {
	reply, err := coreStats(sh, fb.eng.Load())
	if err == nil {
		fst := fb.f.Stats()
		reply.Replication = &replicationReply{Role: "follower", Follower: &fst}
	}
	return reply, err
}

// routes answers /ingest with a pointer home instead of ing.
func (fb *followerBackend) routes(mux *http.ServeMux, _ http.Handler) {
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", fb.leaderURL+"/ingest")
		http.Error(w, errReplica.Error(), http.StatusServiceUnavailable)
	})
}

// scrub heals by re-fetching: a replica is reproducible from its leader,
// so a failed scrub forces a re-bootstrap instead of a local repair.
func (fb *followerBackend) scrub() {
	if err := fb.f.Store().Scrub(scrubSliceBudget, scrubSlicePause); err != nil && !errors.Is(err, provgraph.ErrClosed) {
		log.Printf("provd: follower scrub failed (%v); forcing re-bootstrap from leader", err)
		fb.f.ForceRebootstrap()
	}
}

// checkpoint is left to Run, every FollowerOptions.CheckpointEvery.
func (fb *followerBackend) checkpoint() {}

func (fb *followerBackend) close() error {
	fb.stop()
	<-fb.done
	if err := fb.f.Store().Close(); !errors.Is(err, provgraph.ErrClosed) {
		return err
	}
	return nil
}

package main

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
	"browserprov/internal/replica"
)

// storeBackend is single-tenant mode: one store directly in -dir,
// opened before the admin endpoints serve, so /readyz answers 200 only
// once it is open. It also serves the leader side of replication.
type storeBackend struct {
	oneTenant
	store *provgraph.Store
	eng   *query.Engine
	repl  *replica.Server
}

// openStore opens the store in dir, keeping the previous checkpoint
// generation so that a corrupt current one is repaired, not fatal.
func openStore(dir string, opts provgraph.Options) (*storeBackend, error) {
	opts.RetainPrevCheckpoint = true
	store, err := provgraph.OpenWith(dir, opts)
	if err != nil {
		log.Printf("provd: store open failed (%v); attempting repair", err)
		rep, rerr := provgraph.RepairStore(dir)
		if rerr != nil {
			return nil, fmt.Errorf("repair: %v (original open error: %v)", rerr, err)
		}
		if rep.FellBack {
			log.Printf("provd: repaired: fell back to checkpoint gen %d, %d WAL frames intact", rep.PrevGen, rep.WALFrames)
		}
		if store, err = provgraph.OpenWith(dir, opts); err != nil {
			return nil, err
		}
	}
	return &storeBackend{store: store, eng: query.NewEngine(store, query.Options{}), repl: replica.NewServer(store)}, nil
}

func (sb *storeBackend) pin(string) (sink, func(), error) { return sb.store, func() {}, nil }

func (sb *storeBackend) healthz() (string, error) {
	v := sb.eng.View()
	return fmt.Sprintf("ok gen=%d", v.Generation()), v.Err()
}

func (sb *storeBackend) ready() error { return sb.eng.View().Err() }

func (sb *storeBackend) stats(sh shellStats) (any, error) {
	reply, err := coreStats(sh, sb.eng)
	if err == nil {
		reply.Replication = &replicationReply{Role: "leader", Instance: sb.repl.Instance(), Followers: sb.repl.Followers()}
	}
	return reply, err
}

// routes mounts replication beside ingest: followers read
// /replica/meta, bootstrap from /checkpoint/<gen> and tail /wal/stream.
func (sb *storeBackend) routes(mux *http.ServeMux, ing http.Handler) {
	mux.Handle("/ingest", ing)
	sb.repl.Register(mux)
}

// scrub re-verifies checkpoint and WAL CRCs. Repair needs the store
// closed, so a dirty sweep is logged loudly and left to the next start.
func (sb *storeBackend) scrub() {
	if err := sb.store.Scrub(scrubSliceBudget, scrubSlicePause); err != nil && !errors.Is(err, provgraph.ErrClosed) {
		log.Printf("provd: INTEGRITY SCRUB FAILED (restart repairs from retained checkpoint): %v", err)
	}
}

func (sb *storeBackend) checkpoint() {
	if err := sb.store.Checkpoint(); err != nil {
		log.Printf("provd: checkpoint: %v", err)
		return
	}
	sn, ck := sb.store.Snapshot(), sb.store.CheckpointInfo()
	log.Printf("provd: checkpoint ok (%d nodes, %d edges, %d checkpoint bytes)", sn.NumNodes(), sn.NumEdges(), ck.Bytes)
}

func (sb *storeBackend) close() error {
	if err := sb.store.Checkpoint(); err != nil {
		log.Printf("provd: final checkpoint: %v", err)
	}
	return sb.store.Close()
}

// statsReply is the single-tenant and follower /stats JSON shape.
type statsReply struct {
	shellStats
	provgraph.Stats
	provgraph.MappedInfo
	Generation uint64 `json:"generation"`
	SizeOnDisk int64  `json:"size_on_disk_bytes"`
	// The WAL tail a crash would replay over the last checkpoint, and
	// its age (-1 when the store has never checkpointed).
	CheckpointBytes   int64                 `json:"checkpoint_bytes"`
	WALBytes          int64                 `json:"wal_bytes"`
	LastCheckpointAge float64               `json:"last_checkpoint_age_seconds"`
	DedupWindow       int                   `json:"dedup_window"`
	Scrub             provgraph.ScrubStatus `json:"scrub"`
	Replication       *replicationReply     `json:"replication,omitempty"`
}

// replicationReply is the replication section of /stats. Exactly one of
// Followers (leader) or Follower (replica) is populated.
type replicationReply struct {
	Role      string                            `json:"role"`
	Instance  string                            `json:"instance,omitempty"`
	Followers map[string]replica.FollowerStream `json:"followers,omitempty"`
	Follower  *replica.FollowerStats            `json:"follower,omitempty"`
}

// coreStats assembles a /stats reply off a fresh view of eng's store:
// every count comes from one pinned snapshot, so they agree under
// capture load.
func coreStats(sh shellStats, eng *query.Engine) (*statsReply, error) {
	v := eng.View()
	if err := v.Err(); err != nil {
		return nil, err
	}
	store := eng.Store()
	ck := store.CheckpointInfo()
	age := -1.0
	if !ck.LastAt.IsZero() {
		age = time.Since(ck.LastAt).Seconds()
	}
	return &statsReply{
		shellStats:        sh,
		Stats:             v.Snapshot().Stats(),
		MappedInfo:        store.MappedInfo(),
		Generation:        v.Generation(),
		SizeOnDisk:        store.SizeOnDisk(),
		CheckpointBytes:   ck.Bytes,
		WALBytes:          ck.WALBytes,
		LastCheckpointAge: age,
		DedupWindow:       store.DedupWindowLen(),
		Scrub:             store.ScrubStatus(),
	}, nil
}

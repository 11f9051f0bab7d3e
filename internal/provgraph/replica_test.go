package provgraph

import (
	"errors"
	"fmt"
	"testing"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// shipWAL reads every frame of src's WAL (flushed first) and replays it
// into dst via ReplicateRecord — an in-process stand-in for the wire.
func shipWAL(t *testing.T, src, dst *Store) (shipped int) {
	t.Helper()
	if err := src.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	info := src.ReplicationInfo()
	r, err := storage.OpenWALReader(info.WALPath, dst.NextLSN())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for {
		frame, lsn, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if frame == nil {
			return shipped
		}
		applied, err := dst.ReplicateRecord(lsn, frame[16:])
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			shipped++
		}
	}
}

func TestReplicaRejectsDirectWrites(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ev := visit(1, "http://a.example/", "A", "", event.TransTyped, t0)
	if err := s.Apply(ev); !errors.Is(err, ErrReplica) {
		t.Fatalf("Apply on replica: %v, want ErrReplica", err)
	}
	if err := s.ApplyBatch([]*event.Event{ev}); !errors.Is(err, ErrReplica) {
		t.Fatalf("ApplyBatch on replica: %v, want ErrReplica", err)
	}
	if _, err := s.ApplyBatchDedup([]string{"id-1"}, []*event.Event{ev}); !errors.Is(err, ErrReplica) {
		t.Fatalf("ApplyBatchDedup on replica: %v, want ErrReplica", err)
	}
}

func TestReplicateRecordMirrorsLeader(t *testing.T) {
	leader := openStore(t, t.TempDir())
	defer leader.Close()
	follower, err := OpenWith(t.TempDir(), Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	for i := 0; i < 20; i++ {
		mustApply(t, leader, visit(1, fmt.Sprintf("http://s%d.example/", i), "t", "", event.TransTyped, t0))
	}
	if n := shipWAL(t, leader, follower); n != 20 {
		t.Fatalf("shipped %d records, want 20", n)
	}
	if follower.NextLSN() != leader.NextLSN() {
		t.Fatalf("follower NextLSN %d != leader %d", follower.NextLSN(), leader.NextLSN())
	}
	for i := 0; i < 20; i++ {
		if _, ok := follower.Snapshot().PageByURL(fmt.Sprintf("http://s%d.example/", i)); !ok {
			t.Fatalf("page %d missing on follower", i)
		}
	}
}

func TestReplicateRecordDuplicateAndGap(t *testing.T) {
	leader := openStore(t, t.TempDir())
	defer leader.Close()
	follower, err := OpenWith(t.TempDir(), Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	mustApply(t, leader, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	mustApply(t, leader, visit(1, "http://b.example/", "B", "", event.TransTyped, t0))
	if err := leader.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	r, err := storage.OpenWALReader(leader.ReplicationInfo().WALPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	f0, _, _ := r.ReadFrame()
	rec0 := append([]byte(nil), f0[16:]...)
	f1, _, _ := r.ReadFrame()
	rec1 := append([]byte(nil), f1[16:]...)

	// Gap: record 1 before record 0.
	if _, err := follower.ReplicateRecord(1, rec1); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap: %v, want ErrReplicaGap", err)
	}
	if applied, err := follower.ReplicateRecord(0, rec0); err != nil || !applied {
		t.Fatalf("record 0: applied=%v err=%v", applied, err)
	}
	// Duplicate: silently skipped.
	if applied, err := follower.ReplicateRecord(0, rec0); err != nil || applied {
		t.Fatalf("dup record 0: applied=%v err=%v", applied, err)
	}
	if applied, err := follower.ReplicateRecord(1, rec1); err != nil || !applied {
		t.Fatalf("record 1: applied=%v err=%v", applied, err)
	}
	if follower.NextLSN() != 2 {
		t.Fatalf("NextLSN = %d", follower.NextLSN())
	}
}

func TestReplicaSurvivesRestart(t *testing.T) {
	leaderDir, followerDir := t.TempDir(), t.TempDir()
	leader := openStore(t, leaderDir)
	defer leader.Close()
	follower, err := OpenWith(followerDir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		mustApply(t, leader, visit(1, fmt.Sprintf("http://s%d.example/", i), "t", "", event.TransTyped, t0))
	}
	shipWAL(t, leader, follower)
	if err := follower.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the replica's own journal is its high-water mark.
	follower, err = OpenWith(followerDir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if follower.NextLSN() != 10 {
		t.Fatalf("NextLSN after restart = %d, want 10", follower.NextLSN())
	}
	for i := 10; i < 15; i++ {
		mustApply(t, leader, visit(1, fmt.Sprintf("http://s%d.example/", i), "t", "", event.TransTyped, t0))
	}
	if n := shipWAL(t, leader, follower); n != 5 {
		t.Fatalf("resumed ship applied %d records, want 5", n)
	}
	for i := 0; i < 15; i++ {
		if _, ok := follower.Snapshot().PageByURL(fmt.Sprintf("http://s%d.example/", i)); !ok {
			t.Fatalf("page %d missing after resume", i)
		}
	}
}

func TestReplicaDedupWindowRidesStream(t *testing.T) {
	leader := openStore(t, t.TempDir())
	defer leader.Close()
	follower, err := OpenWith(t.TempDir(), Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	ev := visit(1, "http://a.example/", "A", "", event.TransTyped, t0)
	if _, err := leader.ApplyBatchDedup([]string{"ingest-1"}, []*event.Event{ev}); err != nil {
		t.Fatal(err)
	}
	shipWAL(t, leader, follower)
	if !follower.SeenEventID("ingest-1") {
		t.Fatal("dedup ID did not ride the replicated record")
	}
}

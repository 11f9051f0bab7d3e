package provgraph

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"browserprov/internal/event"
)

// genEvents builds a deterministic mixed workload (visits with cross
// references, closes, searches, downloads, bookmarks, redirects) with
// no store involved, so the same sequence can feed several stores.
func genIngestEvents(n int, base time.Time) []*event.Event {
	evs := make([]*event.Event, 0, n+n/4)
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		url := fmt.Sprintf("http://site%d.example/p%d", i%7, i%53)
		evs = append(evs, &event.Event{Time: at, Type: event.TypeVisit, Tab: 1 + i%3,
			URL: url, Title: fmt.Sprintf("Page %d", i%53), Transition: event.TransTyped})
		switch i % 9 {
		case 1:
			evs = append(evs, &event.Event{Time: at.Add(time.Second), Type: event.TypeVisit, Tab: 1 + i%3,
				URL: url + "/next", Title: "Next", Referrer: url, Transition: event.TransLink})
		case 2:
			evs = append(evs, &event.Event{Time: at.Add(time.Second), Type: event.TypeSearch, Tab: 1 + i%3,
				Terms: fmt.Sprintf("term %d", i%11), URL: "http://search.example/?q=x"})
			evs = append(evs, &event.Event{Time: at.Add(2 * time.Second), Type: event.TypeVisit, Tab: 1 + i%3,
				URL: "http://search.example/?q=x", Title: "Results", Referrer: url, Transition: event.TransSearchResult})
		case 4:
			evs = append(evs, &event.Event{Time: at.Add(time.Second), Type: event.TypeDownload, Tab: 1 + i%3,
				URL: url + "/f.zip", SavePath: fmt.Sprintf("/dl/f-%d.zip", i), ContentType: "application/zip"})
		case 5:
			evs = append(evs, &event.Event{Time: at.Add(time.Second), Type: event.TypeBookmarkAdd, Tab: 1 + i%3,
				URL: url, Title: "Bookmark"})
		case 6:
			evs = append(evs, &event.Event{Time: at.Add(time.Second), Type: event.TypeVisit, Tab: 1 + i%3,
				URL: url + "/hop", Title: "Hop", Referrer: url, Transition: event.TransRedirectTemporary})
		case 7:
			evs = append(evs, &event.Event{Time: at.Add(time.Second), Type: event.TypeClose, Tab: 1 + i%3, URL: url})
		}
	}
	return evs
}

func sameNode(a, b Node) bool {
	return a.ID == b.ID && a.Kind == b.Kind && a.URL == b.URL && a.Title == b.Title &&
		a.Text == b.Text && a.Open.Equal(b.Open) && a.Close.Equal(b.Close) &&
		a.Page == b.Page && a.VisitSeq == b.VisitSeq && a.Via == b.Via
}

// storesMustMatch compares the whole read surface of two stores.
func storesMustMatch(t *testing.T, a, b *Store) {
	t.Helper()
	if d := snapshotDiff(a.Snapshot(), b.Snapshot()); d != "" {
		t.Fatal(d)
	}
}

// TestApplyBatchMatchesApply: feeding the same events through
// ApplyBatch (several batch sizes, including ones that split related
// event pairs across batches) must build exactly the store the
// per-event path builds.
func TestApplyBatchMatchesApply(t *testing.T) {
	evs := genIngestEvents(120, t0)
	ref := openStore(t, t.TempDir())
	defer ref.Close()
	for _, ev := range evs {
		if err := ref.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, batch := range []int{1, 3, 17, 64, len(evs) + 100} {
		s := openStore(t, t.TempDir())
		for i := 0; i < len(evs); i += batch {
			end := i + batch
			if end > len(evs) {
				end = len(evs)
			}
			if err := s.ApplyBatch(evs[i:end]); err != nil {
				t.Fatalf("batch=%d: %v", batch, err)
			}
		}
		storesMustMatch(t, ref, s)
		snapMustMatchStore(t, s, s.Snapshot())
		if cyc := s.VerifyDAG(); cyc != nil {
			t.Fatalf("batch=%d: cycle %v", batch, cyc)
		}
		s.Close()
	}
}

// TestApplyBatchRecovery: batched events land in the WAL and replay on
// reopen identically, across a mid-stream checkpoint.
func TestApplyBatchRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := genIngestEvents(90, t0)
	s := openStore(t, dir)
	if err := s.ApplyBatch(evs[:40]); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch(evs[40:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir)
	defer re.Close()
	ref := openStore(t, t.TempDir())
	defer ref.Close()
	if err := ref.ApplyBatch(evs); err != nil {
		t.Fatal(err)
	}
	storesMustMatch(t, ref, re)
}

// TestApplyBatchValidation: one invalid event rejects the whole batch
// up front — nothing is logged or applied.
func TestApplyBatchValidation(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	good := genIngestEvents(5, t0)
	bad := append(append([]*event.Event{}, good...), &event.Event{Type: event.TypeVisit, URL: "http://x.example/"}) // zero time
	if err := s.ApplyBatch(bad); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("invalid batch: err = %v, want ErrInvalidBatch", err)
	}
	if st := s.Snapshot().Stats(); st.Nodes != 0 {
		t.Fatalf("rejected batch mutated the store: %+v", st)
	}
	if s.j.WALSize() != 0 {
		t.Fatalf("rejected batch logged %d bytes", s.j.WALSize())
	}
}

// TestWALTornWriteRecovery truncates the WAL mid-record — a torn write
// inside the last batch — and asserts replay recovers the clean prefix
// and the store reopens consistent and writable.
func TestWALTornWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := genIngestEvents(60, t0)
	s := openStore(t, dir)
	if err := s.ApplyBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop a few bytes off the WAL tail so the
	// final entry's payload is incomplete.
	wal := filepath.Join(dir, "provgraph.wal")
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir)
	defer re.Close()
	// The clean prefix is everything but the last event.
	ref := openStore(t, t.TempDir())
	defer ref.Close()
	if err := ref.ApplyBatch(evs[:len(evs)-1]); err != nil {
		t.Fatal(err)
	}
	storesMustMatch(t, ref, re)
	if cyc := re.VerifyDAG(); cyc != nil {
		t.Fatalf("cycle after torn-write recovery: %v", cyc)
	}

	// The log was truncated at the last valid boundary: appending and
	// recovering again must work.
	extra := &event.Event{Time: t0.Add(100 * time.Hour), Type: event.TypeVisit, Tab: 9,
		URL: "http://after-tear.example/", Title: "After", Transition: event.TransTyped}
	if err := re.Apply(extra); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Snapshot().PageByURL("http://after-tear.example/"); !ok {
		t.Fatal("post-recovery write missing")
	}
}

// TestWritesDuringResealOverlay holds a reseal's publish open (test
// gate) while writers keep mutating: snapshots taken in the window
// chain over the pending capture and must stay exactly consistent with
// the live store, before and after the delayed publish.
func TestWritesDuringResealOverlay(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.ApplyBatch(genIngestEvents(400, t0)); err != nil {
		t.Fatal(err)
	}
	s.WaitReseal() // drain any threshold-triggered seal first

	gate := make(chan struct{})
	s.mu.Lock()
	s.sealGate = gate
	s.mu.Unlock()
	s.ForceReseal()
	if !s.Sealing() {
		t.Fatal("ForceReseal did not start a reseal")
	}

	// Mutations during the in-flight build: new nodes, edges into
	// captured nodes, closes of captured visits — all land in the fresh
	// overlay above the pending capture.
	if err := s.ApplyBatch(genIngestEvents(80, t0.Add(1000*time.Minute))); err != nil {
		t.Fatal(err)
	}
	chained := s.Snapshot()
	snapMustMatchStore(t, s, chained)

	close(gate)
	s.WaitReseal()
	s.mu.Lock()
	s.sealGate = nil
	s.mu.Unlock()
	if s.sealedMaxNow() == 0 {
		t.Fatal("reseal never published")
	}
	// The chained snapshot is still valid after the publish, and a
	// fresh one (now flat) matches the store too.
	snapMustMatchStore(t, s, chained)
	if err := s.ApplyBatch(genIngestEvents(10, t0.Add(2000*time.Minute))); err != nil {
		t.Fatal(err)
	}
	snapMustMatchStore(t, s, s.Snapshot())
}

// TestPinnedSnapshotAcrossReseal pins a snapshot, forces reseals and
// keeps writing, and asserts the pinned view's answers do not move.
func TestPinnedSnapshotAcrossReseal(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.ApplyBatch(genIngestEvents(300, t0)); err != nil {
		t.Fatal(err)
	}
	s.WaitReseal()
	sn := s.Snapshot()

	type probe struct {
		node  Node
		out   []NodeID
		inIDs []NodeID
	}
	probes := make([]probe, 0, sn.MaxNodeID())
	for id := NodeID(1); id <= sn.MaxNodeID(); id++ {
		n, _ := sn.NodeByID(id)
		probes = append(probes, probe{
			node:  n,
			out:   append([]NodeID(nil), sn.Out(id)...),
			inIDs: append([]NodeID(nil), sn.In(id)...),
		})
	}
	openBefore := sn.OpenBetween(time.Time{}, time.Unix(1<<40, 0))
	dlsBefore := append([]NodeID(nil), sn.Downloads()...)

	for round := 0; round < 3; round++ {
		if err := s.ApplyBatch(genIngestEvents(200, t0.Add(time.Duration(1000*(round+1))*time.Minute))); err != nil {
			t.Fatal(err)
		}
		s.ForceReseal()
		s.WaitReseal()
	}

	for i, p := range probes {
		id := NodeID(i + 1)
		n, _ := sn.NodeByID(id)
		if !sameNode(n, p.node) {
			t.Fatalf("pinned node %d drifted: %+v -> %+v", id, p.node, n)
		}
		if !sameIDs(sn.Out(id), p.out) {
			t.Fatalf("pinned Out(%d) drifted", id)
		}
		if !sameIDs(sn.In(id), p.inIDs) {
			t.Fatalf("pinned In(%d) drifted", id)
		}
	}
	if !sameIDs(sn.OpenBetween(time.Time{}, time.Unix(1<<40, 0)), openBefore) {
		t.Fatal("pinned OpenBetween drifted")
	}
	if !sameIDs(sn.Downloads(), dlsBefore) {
		t.Fatal("pinned Downloads drifted")
	}
}

// TestResealInvalidatedByRetention lets retention rewrite the graph
// while a gated reseal is in flight: the stale epoch must be discarded
// (sealSeq mismatch) in favour of the epoch retention installed, and the
// store must stay consistent and able to seal again afterwards.
func TestResealInvalidatedByRetention(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	if err := s.ApplyBatch(genIngestEvents(300, t0)); err != nil {
		t.Fatal(err)
	}
	s.WaitReseal()

	gate := make(chan struct{})
	s.mu.Lock()
	s.sealGate = gate
	s.mu.Unlock()
	s.ForceReseal()

	// Retention rewrites the graph wholesale under the in-flight build.
	if _, err := s.ExpireBefore(t0.Add(200 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	retained := s.w.sealed
	s.mu.Unlock()
	close(gate)
	s.WaitReseal()
	// Retention bumped sealSeq, so the gated publish must have been
	// discarded: the sealed epoch is still the one retention built.
	s.mu.Lock()
	s.sealGate = nil
	sealedAfter := s.w.sealed
	s.mu.Unlock()
	if sealedAfter != retained {
		t.Fatal("stale epoch published over retention rewrite")
	}
	snapMustMatchStore(t, s, s.Snapshot())

	// The store can seal again from the post-retention state.
	if err := s.ApplyBatch(genIngestEvents(200, t0.Add(3000*time.Minute))); err != nil {
		t.Fatal(err)
	}
	s.ForceReseal()
	s.WaitReseal()
	snapMustMatchStore(t, s, s.Snapshot())
}

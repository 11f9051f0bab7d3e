package provgraph

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"browserprov/internal/event"
)

func TestDedupWindowEvictsFIFO(t *testing.T) {
	w := newDedupWindow(3)
	for _, id := range []string{"a", "b", "c"} {
		w.add(id)
	}
	if w.len() != 3 {
		t.Fatalf("len = %d, want 3", w.len())
	}
	w.add("d") // evicts a
	if w.seen("a") {
		t.Fatal("a should have been evicted")
	}
	for _, id := range []string{"b", "c", "d"} {
		if !w.seen(id) {
			t.Fatalf("%s should still be in the window", id)
		}
	}
	w.add("b") // re-add of a live ID is a no-op, not a re-insert
	if w.len() != 3 {
		t.Fatalf("len after duplicate add = %d, want 3", w.len())
	}
	if got := w.snapshot(); len(got) != 3 || got[0] != "b" || got[2] != "d" {
		t.Fatalf("snapshot = %v, want [b c d]", got)
	}
}

func TestDedupWindowCompacts(t *testing.T) {
	w := newDedupWindow(8)
	for i := 0; i < 5000; i++ {
		w.add(fmt.Sprintf("id-%d", i))
	}
	if w.len() != 8 {
		t.Fatalf("len = %d, want 8", w.len())
	}
	// Compaction kicks in once the dead prefix passes 1024: the backing
	// slice must stay bounded instead of growing with total traffic.
	if len(w.q) > 2048 {
		t.Fatalf("backing slice holds %d entries for an 8-ID window: compaction failed", len(w.q))
	}
	for i := 0; i < w.head; i++ {
		if w.q[i] != "" {
			t.Fatalf("evicted slot %d still pins %q", i, w.q[i])
		}
	}
	for i := 4992; i < 5000; i++ {
		if !w.seen(fmt.Sprintf("id-%d", i)) {
			t.Fatalf("id-%d missing from window", i)
		}
	}
}

func batchIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return ids
}

func countApplied(applied []bool) int {
	n := 0
	for _, a := range applied {
		if a {
			n++
		}
	}
	return n
}

func TestApplyBatchDedupSkipsDuplicates(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evs := genIngestEvents(20, time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC))
	ids := batchIDs("b1", len(evs))

	applied, err := s.ApplyBatchDedup(ids, evs)
	if err != nil {
		t.Fatal(err)
	}
	if countApplied(applied) != len(evs) {
		t.Fatalf("first delivery applied %d/%d", countApplied(applied), len(evs))
	}
	before := s.Stats()

	// Exact redelivery: nothing applies, graph unchanged.
	applied, err = s.ApplyBatchDedup(ids, evs)
	if err != nil {
		t.Fatal(err)
	}
	if countApplied(applied) != 0 {
		t.Fatalf("redelivery applied %d events, want 0", countApplied(applied))
	}
	if after := s.Stats(); after != before {
		t.Fatalf("stats changed on redelivery: %+v -> %+v", before, after)
	}

	// Partial overlap: only the fresh suffix applies.
	more := genIngestEvents(5, time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC))
	mixedIDs := append(ids[:3:3], batchIDs("b2", len(more)-3)...)
	applied, err = s.ApplyBatchDedup(mixedIDs, more[:len(mixedIDs)])
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range applied {
		if want := i >= 3; a != want {
			t.Fatalf("applied[%d] = %v, want %v", i, a, want)
		}
	}
}

func TestApplyBatchDedupInBatchDuplicate(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	evs := []*event.Event{
		{Time: at, Type: event.TypeVisit, Tab: 1, URL: "http://a.example/", Transition: event.TransTyped},
		{Time: at.Add(time.Second), Type: event.TypeVisit, Tab: 1, URL: "http://b.example/", Transition: event.TransTyped},
		{Time: at.Add(2 * time.Second), Type: event.TypeVisit, Tab: 1, URL: "http://c.example/", Transition: event.TransTyped},
	}
	// Same ID on events 0 and 2 (a client that merged two spool files):
	// first occurrence wins.
	applied, err := s.ApplyBatchDedup([]string{"x", "y", "x"}, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !applied[0] || !applied[1] || applied[2] {
		t.Fatalf("applied = %v, want [true true false]", applied)
	}
	if _, ok := s.PageByURL("http://c.example/"); ok {
		t.Fatal("in-batch duplicate event was applied")
	}
}

func TestApplyBatchDedupUnkeyedAlwaysApplies(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	ev := &event.Event{Time: at, Type: event.TypeVisit, Tab: 1,
		URL: "http://a.example/", Transition: event.TransTyped}
	for i := 0; i < 3; i++ {
		applied, err := s.ApplyBatchDedup([]string{""}, []*event.Event{ev})
		if err != nil || !applied[0] {
			t.Fatalf("delivery %d: applied=%v err=%v", i, applied, err)
		}
	}
	if s.DedupWindowLen() != 0 {
		t.Fatalf("un-keyed events must not occupy the window (len=%d)", s.DedupWindowLen())
	}
}

func TestApplyBatchDedupRejectsBadInput(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	at := time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC)
	ok := &event.Event{Time: at, Type: event.TypeVisit, Tab: 1,
		URL: "http://a.example/", Transition: event.TransTyped}

	if _, err := s.ApplyBatchDedup([]string{"a", "b"}, []*event.Event{ok}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("length mismatch: err = %v, want ErrInvalidBatch", err)
	}
	if _, err := s.ApplyBatchDedup([]string{"bad\nid"}, []*event.Event{ok}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("control byte in ID: err = %v, want ErrInvalidBatch", err)
	}
	long := make([]byte, maxEventIDLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := s.ApplyBatchDedup([]string{string(long)}, []*event.Event{ok}); !errors.Is(err, ErrInvalidBatch) {
		t.Fatalf("oversized ID: err = %v, want ErrInvalidBatch", err)
	}
	// A rejected batch must leave no trace.
	if s.DedupWindowLen() != 0 || s.Stats().Nodes != 0 {
		t.Fatal("rejected batch left state behind")
	}
}

// TestDedupSurvivesWALReplay proves the window and the graph recover
// from the same WAL records: after a restart, redelivering an already
// applied batch is still a no-op.
func TestDedupSurvivesWALReplay(t *testing.T) {
	dir := t.TempDir()
	evs := genIngestEvents(30, time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC))
	ids := batchIDs("r", len(evs))

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyBatchDedup(ids, evs); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DedupWindowLen(); got != len(evs) {
		t.Fatalf("window after replay holds %d IDs, want %d", got, len(evs))
	}
	before := s2.Stats()
	applied, err := s2.ApplyBatchDedup(ids, evs)
	if err != nil {
		t.Fatal(err)
	}
	if countApplied(applied) != 0 {
		t.Fatalf("post-restart redelivery applied %d events, want 0", countApplied(applied))
	}
	if after := s2.Stats(); after != before {
		t.Fatalf("stats changed on post-restart redelivery: %+v -> %+v", before, after)
	}
}

// TestDedupSurvivesCheckpoint proves checkpoints persist the window:
// after the WAL prefix is dropped, redelivery is still deduplicated,
// and the recovered store matches a store that saw each batch once.
func TestDedupSurvivesCheckpoint(t *testing.T) {
	t.Run("v3", func(t *testing.T) {
		dir := t.TempDir()
		evs := genIngestEvents(30, time.Date(2026, 3, 1, 9, 0, 0, 0, time.UTC))
		ids := batchIDs("c", len(evs))
		tail := genIngestEvents(8, time.Date(2026, 3, 3, 9, 0, 0, 0, time.UTC))
		tailIDs := batchIDs("t", len(tail))

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBatchDedup(ids, evs); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Keyed WAL tail on top of the checkpoint.
		if _, err := s.ApplyBatchDedup(tailIDs, tail); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if got, want := s2.DedupWindowLen(), len(evs)+len(tail); got != want {
			t.Fatalf("window after recovery holds %d IDs, want %d", got, want)
		}
		for _, batch := range [][2]interface{}{{ids, evs}, {tailIDs, tail}} {
			applied, err := s2.ApplyBatchDedup(batch[0].([]string), batch[1].([]*event.Event))
			if err != nil {
				t.Fatal(err)
			}
			if countApplied(applied) != 0 {
				t.Fatalf("redelivery after recovery applied %d events, want 0", countApplied(applied))
			}
		}

		// Reference store that saw everything exactly once.
		ref, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if _, err := ref.ApplyBatchDedup(ids, evs); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ApplyBatchDedup(tailIDs, tail); err != nil {
			t.Fatal(err)
		}
		storesMustMatch(t, ref, s2)
	})
}

package provgraph

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"browserprov/internal/event"
)

// snapMustMatchStore compares sn, a snapshot of s at its current
// generation, with a store recovered from a copy of s's files: the same
// events through a different layering (a loaded epoch plus a replayed
// WAL tail, or a replay from nothing).
func snapMustMatchStore(t *testing.T, s *Store, sn *Snapshot) {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	src := filepath.Dir(s.ReplicationInfo().WALPath)
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := OpenWith(dir, Options{Mode: s.Mode()})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if d := snapshotDiff(ref.Snapshot(), sn); d != "" {
		t.Fatal(d)
	}
}

func sameIDs(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameEdges(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To || a[i].Kind != b[i].Kind || !a[i].At.Equal(b[i].At) {
			return false
		}
	}
	return true
}

// feedMixed applies a workload with every node kind, cross-tab
// referrers, redirects, bookmarks, searches and downloads.
func feedMixed(t *testing.T, s *Store, n int, base time.Time) {
	t.Helper()
	for i := 0; i < n; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		url := fmt.Sprintf("http://site%d.example/p%d", i%7, i%50)
		mustApply(t, s, visit(1+i%3, url, fmt.Sprintf("Page %d", i%50), "", event.TransTyped, at))
		switch i % 11 {
		case 2:
			mustApply(t, s, visit(1+i%3, url+"/next", "Next", url, event.TransLink, at.Add(time.Second)))
		case 3:
			mustApply(t, s, &event.Event{Time: at.Add(2 * time.Second), Type: event.TypeSearch,
				Tab: 1 + i%3, Terms: fmt.Sprintf("term %d", i%13), URL: "http://search.example/?q=x"})
			mustApply(t, s, visit(1+i%3, "http://search.example/?q=x", "Results", url, event.TransSearchResult, at.Add(3*time.Second)))
		case 5:
			mustApply(t, s, &event.Event{Time: at.Add(2 * time.Second), Type: event.TypeDownload,
				Tab: 1 + i%3, URL: url + "/file.zip", SavePath: fmt.Sprintf("/dl/file-%d.zip", i), ContentType: "application/zip"})
		case 7:
			mustApply(t, s, &event.Event{Time: at.Add(2 * time.Second), Type: event.TypeBookmarkAdd,
				Tab: 1 + i%3, URL: url, Title: "Bookmark"})
		case 8:
			// Bookmark click on the previous iteration's bookmark: its
			// in-edges arrive as [origin visit (high ID), bookmark (low
			// ID)] — insertion order that From-sorted packing would
			// scramble, which the order-sensitive snapshot comparison
			// must catch.
			prev := fmt.Sprintf("http://site%d.example/p%d", (i-1)%7, (i-1)%50)
			mustApply(t, s, visit(1+i%3, prev, "Revisit", "", event.TransBookmark, at.Add(2*time.Second)))
		case 9:
			mustApply(t, s, visit(1+i%3, url+"/redir", "Hop", url, event.TransRedirectTemporary, at.Add(time.Second)))
		}
	}
}

func TestSnapshotMatchesStore(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	feedMixed(t, s, 60, t0)
	snapMustMatchStore(t, s, s.Snapshot())
}

// sealedMaxNow reads the sealed high-water mark under the lock (the
// reseal publish runs on a background goroutine, so unlocked reads
// would race it).
func (s *Store) sealedMaxNow() NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealedMax()
}

// TestSnapshotAcrossSeal forces a reseal (tail > sealThresholdMin) and
// checks equivalence before, across and after the boundary.
func TestSnapshotAcrossSeal(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	feedMixed(t, s, 400, t0) // ~>1100 nodes: the write path schedules a seal
	sn1 := s.Snapshot()
	snapMustMatchStore(t, s, sn1)
	s.WaitReseal()
	if s.sealedMaxNow() == 0 {
		t.Fatal("expected a sealed epoch after large build")
	}
	// Small tail on top of the seal: dirty sealed nodes + new nodes.
	feedMixed(t, s, 40, t0.Add(500*time.Minute))
	sn2 := s.Snapshot()
	snapMustMatchStore(t, s, sn2)
	// Grow past the threshold again: second reseal.
	feedMixed(t, s, 500, t0.Add(1000*time.Minute))
	s.WaitReseal()
	sn3 := s.Snapshot()
	snapMustMatchStore(t, s, sn3)
	if sn1 == sn2 || sn2 == sn3 {
		t.Fatal("snapshots across generations must be distinct")
	}
}

func TestSnapshotCachingAndGeneration(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	g1 := s.Generation()
	sn1 := s.Snapshot()
	if sn2 := s.Snapshot(); sn2 != sn1 {
		t.Fatal("unchanged store must return the cached snapshot")
	}
	mustApply(t, s, visit(1, "http://b.example/", "B", "", event.TransTyped, t0.Add(time.Minute)))
	if s.Generation() == g1 {
		t.Fatal("generation must advance on mutation")
	}
	sn3 := s.Snapshot()
	if sn3 == sn1 {
		t.Fatal("stale snapshot returned after mutation")
	}
	if sn3.Generation() == sn1.Generation() {
		t.Fatal("snapshot generations must differ")
	}
}

// TestSnapshotImmutableUnderWrites pins the point-in-time contract: a
// snapshot keeps answering from its epoch while the store moves on.
func TestSnapshotImmutableUnderWrites(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
	)
	sn := s.Snapshot()
	a, _ := s.Snapshot().PageByURL("http://a.example/")
	av := s.Snapshot().VisitsOfPage(a.ID)[0]
	outBefore := append([]NodeID(nil), sn.Out(av)...)
	nodesBefore := sn.NumNodes()

	// The store grows: a new visit descends from a's visit (appending to
	// its out-adjacency) and a's visit gets closed.
	mustApply(t, s,
		visit(1, "http://c.example/", "C", "http://a.example/", event.TransLink, t0.Add(2*time.Minute)),
	)
	if got := sn.Out(av); !sameIDs(got, outBefore) {
		t.Fatalf("snapshot Out mutated: %v -> %v", outBefore, got)
	}
	if sn.NumNodes() != nodesBefore {
		t.Fatal("snapshot node count mutated")
	}
	if _, ok := sn.PageByURL("http://c.example/"); ok {
		t.Fatal("snapshot sees a page created after it was taken")
	}
	// The next snapshot sees everything.
	sn2 := s.Snapshot()
	if _, ok := sn2.PageByURL("http://c.example/"); !ok {
		t.Fatal("fresh snapshot missing new page")
	}
	snapMustMatchStore(t, s, sn2)
}

// TestSnapshotSealedNodeMutation covers the dirty-node overlay: closing
// a sealed visit must show up in the next snapshot.
func TestSnapshotSealedNodeMutation(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	feedMixed(t, s, 400, t0)
	s.Snapshot()
	s.WaitReseal() // the write path scheduled a background seal
	if s.sealedMaxNow() == 0 {
		t.Fatal("expected seal")
	}
	// Tab 1's current visit is sealed; a new navigation closes it.
	curBefore := s.tabCurOf(1)
	mustApply(t, s, visit(1, "http://closer.example/", "Closer", "", event.TransTyped, t0.Add(600*time.Minute)))
	sn := s.Snapshot()
	n, ok := sn.NodeByID(curBefore)
	if !ok {
		t.Fatalf("sealed node %d missing", curBefore)
	}
	if n.Close.IsZero() {
		t.Fatal("close of sealed visit not visible in snapshot")
	}
	snapMustMatchStore(t, s, sn)
}

// tabCurOf exposes the current visit of a tab for tests.
func (s *Store) tabCurOf(tab int) NodeID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tabCur[tab]
}

func TestSnapshotTermReissueShadowsSealed(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	mustApply(t, s, &event.Event{Time: t0.Add(time.Minute), Type: event.TypeSearch, Tab: 1,
		Terms: "rosebud", URL: "http://search.example/?q=rosebud"})
	sn1 := s.Snapshot()
	first, ok := sn1.TermNode("rosebud")
	if !ok || first.VisitSeq != 1 {
		t.Fatalf("first term instance = %+v, %v", first, ok)
	}
	mustApply(t, s, &event.Event{Time: t0.Add(2 * time.Minute), Type: event.TypeSearch, Tab: 1,
		Terms: "rosebud", URL: "http://search.example/?q=rosebud"})
	sn2 := s.Snapshot()
	second, ok := sn2.TermNode("rosebud")
	if !ok || second.VisitSeq != 2 || second.ID == first.ID {
		t.Fatalf("latest term instance = %+v, %v", second, ok)
	}
	// The old snapshot still answers with its own epoch's instance.
	if again, _ := sn1.TermNode("rosebud"); again.ID != first.ID {
		t.Fatal("old snapshot's term mapping changed")
	}
}

func TestSnapshotDownloadBySavePath(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	mustApply(t, s, &event.Event{Time: t0.Add(time.Minute), Type: event.TypeDownload, Tab: 1,
		URL: "http://a.example/x.zip", SavePath: "/dl/x.zip", ContentType: "application/zip"})
	if d, ok := s.Snapshot().DownloadBySavePath("/dl/x.zip"); !ok || d.Kind != KindDownload {
		t.Fatalf("store lookup = %+v, %v", d, ok)
	}
	if d, ok := s.Snapshot().DownloadBySavePath("/dl/x.zip"); !ok || d.URL != "http://a.example/x.zip" {
		t.Fatalf("snapshot lookup = %+v, %v", d, ok)
	}
	if _, ok := s.Snapshot().DownloadBySavePath("/dl/missing"); ok {
		t.Fatal("phantom download")
	}
}

func TestSnapshotNodesSince(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	sn := s.Snapshot()
	watermark := sn.MaxNodeID()
	mustApply(t, s,
		visit(1, "http://b.example/", "B", "", event.TransTyped, t0.Add(time.Minute)),
		visit(1, "http://c.example/", "C", "", event.TransTyped, t0.Add(2*time.Minute)),
	)
	var ids []NodeID
	s.Snapshot().NodesSince(watermark, func(n Node) bool {
		ids = append(ids, n.ID)
		return true
	})
	if len(ids) != 4 { // two pages + two visits
		t.Fatalf("NodesSince returned %v, want 4 nodes", ids)
	}
	for _, id := range ids {
		if id <= watermark {
			t.Fatalf("NodesSince leaked id %d <= watermark %d", id, watermark)
		}
	}
}

func TestSnapshotAfterExpire(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	// Expirable content: one-visit tabs with no download/bookmark
	// descendants, so retention is free to drop them.
	for i := 0; i < 100; i++ {
		mustApply(t, s, visit(50+i, fmt.Sprintf("http://old%d.example/", i), "Old", "",
			event.TransTyped, t0.Add(time.Duration(i)*time.Minute)))
	}
	feedMixed(t, s, 300, t0)
	old := s.Snapshot()
	cutoff := t0.Add(500 * time.Minute)
	feedMixed(t, s, 30, cutoff.Add(time.Hour))
	removed, err := s.ExpireBefore(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if removed < 100 {
		t.Fatalf("removed = %d, want >= 100 (the old one-visit tabs)", removed)
	}
	sn := s.Snapshot()
	snapMustMatchStore(t, s, sn)
	// The pre-expire snapshot still serves its own epoch.
	if _, ok := old.PageByURL("http://old0.example/"); !ok {
		t.Fatal("pre-expire snapshot lost its view")
	}
	if _, ok := sn.PageByURL("http://old0.example/"); ok {
		t.Fatal("post-expire snapshot still shows expired page")
	}
}

func TestSnapshotVersionEdgesMode(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Mode: VersionEdges})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	feedMixed(t, s, 80, t0)
	sn := s.Snapshot()
	snapMustMatchStore(t, s, sn)
	if sn.Mode() != VersionEdges {
		t.Fatalf("mode = %v", sn.Mode())
	}
}

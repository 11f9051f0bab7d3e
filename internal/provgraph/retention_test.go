package provgraph

import (
	"fmt"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/graph"
)

// buildExpirableHistory creates: an old download chain (forum -> shady
// -> download), old plain browsing, and recent browsing.
func buildExpirableHistory(t *testing.T, s *Store) (cutoff time.Time) {
	t.Helper()
	// Old era: day 0.
	mustApply(t, s,
		visit(1, "http://forum.example/", "Forum", "", event.TransTyped, t0),
		visit(1, "http://shady.example/", "Shady", "http://forum.example/", event.TransLink, t0.Add(time.Minute)),
		&event.Event{Time: t0.Add(2 * time.Minute), Type: event.TypeDownload, Tab: 1,
			URL: "http://cdn.example/x.exe", Referrer: "http://shady.example/", SavePath: "/dl/x.exe"},
	)
	// Old plain browsing that nothing depends on.
	for i := 0; i < 10; i++ {
		mustApply(t, s, visit(2, fmt.Sprintf("http://old%d.example/", i), "Old", "", event.TransTyped, t0.Add(time.Duration(10+i)*time.Minute)))
	}
	// Old bookmark.
	mustApply(t, s,
		visit(3, "http://keep.example/", "Keep", "", event.TransTyped, t0.Add(30*time.Minute)),
		&event.Event{Time: t0.Add(31 * time.Minute), Type: event.TypeBookmarkAdd, Tab: 3, URL: "http://keep.example/", Title: "Keep"},
	)
	// Recent era: day 30.
	cutoff = t0.Add(20 * 24 * time.Hour)
	recent := t0.Add(30 * 24 * time.Hour)
	for i := 0; i < 5; i++ {
		mustApply(t, s, visit(4, fmt.Sprintf("http://new%d.example/", i), "New", "", event.TransTyped, recent.Add(time.Duration(i)*time.Minute)))
	}
	return cutoff
}

func TestExpireRemovesOldKeepsRecent(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	cutoff := buildExpirableHistory(t, s)
	before := s.Snapshot().Stats()
	removed, err := s.ExpireBefore(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing expired")
	}
	after := s.Snapshot().Stats()
	if after.Nodes >= before.Nodes {
		t.Fatalf("nodes %d -> %d", before.Nodes, after.Nodes)
	}
	// Recent pages survive.
	for i := 0; i < 5; i++ {
		if _, ok := s.Snapshot().PageByURL(fmt.Sprintf("http://new%d.example/", i)); !ok {
			t.Fatalf("recent page %d expired", i)
		}
	}
	// Old plain pages are gone.
	for i := 0; i < 10; i++ {
		if _, ok := s.Snapshot().PageByURL(fmt.Sprintf("http://old%d.example/", i)); ok {
			t.Fatalf("old page %d survived", i)
		}
	}
}

func TestExpirePinsDownloadLineage(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	cutoff := buildExpirableHistory(t, s)
	if _, err := s.ExpireBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	dls := s.Snapshot().Downloads()
	if len(dls) != 1 {
		t.Fatalf("downloads after expire = %d", len(dls))
	}
	// The full ancestor chain must still be walkable to the forum.
	forum, ok := s.Snapshot().PageByURL("http://forum.example/")
	if !ok {
		t.Fatal("forum page expired despite being in download lineage")
	}
	fv := s.Snapshot().VisitsOfPage(forum.ID)
	if len(fv) != 1 {
		t.Fatalf("forum visits = %d", len(fv))
	}
	path, found := graph.FindFirst(s.Snapshot(), dls[0], graph.Backward, false, func(n NodeID) bool { return n == fv[0] })
	if !found {
		t.Fatal("download lineage broken by expiration")
	}
	if len(path) != 3 {
		t.Fatalf("lineage path = %d hops, want 3", len(path))
	}
}

func TestExpireKeepsBookmarks(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	cutoff := buildExpirableHistory(t, s)
	if _, err := s.ExpireBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	if len(nodesOfKind(s.Snapshot(), KindBookmark)) != 1 {
		t.Fatal("bookmark expired")
	}
	if _, ok := s.Snapshot().PageByURL("http://keep.example/"); !ok {
		t.Fatal("bookmarked page identity expired")
	}
}

func TestExpireSplicesConnectivity(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	// Pinned old ancestor (download origin) -> old middle visit ->
	// recent visit. The middle expires; the recent node must stay
	// reachable from the pinned one via a splice edge.
	mustApply(t, s,
		visit(1, "http://origin.example/", "Origin", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeDownload, Tab: 1,
			URL: "http://origin.example/f.zip", Referrer: "http://origin.example/", SavePath: "/dl/f.zip"},
		visit(1, "http://middle.example/", "Middle", "http://origin.example/", event.TransLink, t0.Add(2*time.Minute)),
	)
	recent := t0.Add(40 * 24 * time.Hour)
	// A recent navigation chaining from the (stale but still current in
	// tab 1) middle page.
	mustApply(t, s, visit(1, "http://recent.example/", "Recent", "http://middle.example/", event.TransLink, recent))

	cutoff := t0.Add(20 * 24 * time.Hour)
	if _, err := s.ExpireBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Snapshot().PageByURL("http://middle.example/"); ok {
		t.Fatal("middle page survived")
	}
	origin, _ := s.Snapshot().PageByURL("http://origin.example/")
	ov := s.Snapshot().VisitsOfPage(origin.ID)[0]
	recentPage, ok := s.Snapshot().PageByURL("http://recent.example/")
	if !ok {
		t.Fatal("recent page expired")
	}
	rv := s.Snapshot().VisitsOfPage(recentPage.ID)[0]
	if !reaches(s.Snapshot(), ov, rv) {
		t.Fatal("connectivity lost: no splice edge bridged the expired middle")
	}
	// The splice edge is marked as such.
	spliced := false
	for _, e := range s.Snapshot().InEdges(rv) {
		if e.Kind == EdgeExpiredSplice {
			spliced = true
		}
	}
	if !spliced {
		t.Fatal("splice edge not marked EdgeExpiredSplice")
	}
}

func TestExpirePreservesDAGAndPersists(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	cutoff := buildExpirableHistory(t, s)
	if _, err := s.ExpireBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("expiration created a cycle: %v", cycle)
	}
	want := s.Snapshot().Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir)
	defer s2.Close()
	if s2.Snapshot().Stats() != want {
		t.Fatalf("stats after reopen = %+v, want %+v", s2.Snapshot().Stats(), want)
	}
	// The store keeps working post-expiration.
	mustApply(t, s2, visit(9, "http://after.example/", "After", "", event.TransTyped, t0.Add(60*24*time.Hour)))
	if _, ok := s2.Snapshot().PageByURL("http://after.example/"); !ok {
		t.Fatal("ingest broken after expiration")
	}
}

func TestExpireEverythingRecentIsNoop(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	removed, err := s.ExpireBefore(t0.Add(-time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed %d from all-recent history", removed)
	}
	if _, ok := s.Snapshot().PageByURL("http://a.example/"); !ok {
		t.Fatal("node lost in no-op expiration")
	}
}

func TestExpireShrinksDisk(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	cutoff := buildExpirableHistory(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := s.SizeOnDisk()
	if _, err := s.ExpireBefore(cutoff); err != nil {
		t.Fatal(err)
	}
	if after := s.SizeOnDisk(); after > before {
		t.Fatalf("disk grew across expiration: %d -> %d", before, after)
	}
}

// TestExpireKeepsRecentPagesInBothModes: a page visited after the cutoff
// survives an expiration whichever way the store versions visits. In
// VersionEdges mode a page has no visit instances, so its recency is read
// from its Open (typed after the cutoff) or from its edges (revisited
// after the cutoff through a link).
func TestExpireKeepsRecentPagesInBothModes(t *testing.T) {
	const (
		old   = "http://old.example/"
		back  = "http://back.example/"
		typed = "http://typed.example/"
	)
	cutoff := t0.Add(time.Hour)
	for _, mode := range []VersioningMode{VersionNodes, VersionEdges} {
		t.Run(mode.String(), func(t *testing.T) {
			s, err := OpenWith(t.TempDir(), Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			mustApply(t, s,
				visit(1, old, "Old", "", event.TransTyped, t0),
				visit(2, back, "Back", "", event.TransTyped, t0.Add(time.Minute)),
				visit(3, typed, "Typed", "", event.TransTyped, t0.Add(2*time.Hour)),
				visit(3, back, "Back", typed, event.TransLink, t0.Add(2*time.Hour+time.Minute)),
			)
			if _, err := s.ExpireBefore(cutoff); err != nil {
				t.Fatal(err)
			}
			sn := s.Snapshot()
			for _, u := range []string{typed, back} {
				if _, ok := sn.PageByURL(u); !ok {
					t.Errorf("page %s, visited after the cutoff, was expired", u)
				}
			}
			if _, ok := sn.PageByURL(old); ok {
				t.Errorf("page %s, visited only before the cutoff, survived", old)
			}
		})
	}
}

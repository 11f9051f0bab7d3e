package provgraph

import (
	"fmt"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/graph"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustApply(t *testing.T, s *Store, evs ...*event.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := s.Apply(ev); err != nil {
			t.Fatalf("Apply(%v %s): %v", ev.Type, ev.URL, err)
		}
	}
}

func visit(tab int, url, title, ref string, tr event.Transition, at time.Time) *event.Event {
	return &event.Event{Time: at, Type: event.TypeVisit, Tab: tab, URL: url, Title: title, Referrer: ref, Transition: tr}
}

func TestVisitCreatesPageAndInstance(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s, visit(1, "http://a.example/", "A", "", event.TransTyped, t0))
	page, ok := s.Snapshot().PageByURL("http://a.example/")
	if !ok {
		t.Fatal("page missing")
	}
	if page.Kind != KindPage {
		t.Fatalf("kind = %v", page.Kind)
	}
	vs := s.Snapshot().VisitsOfPage(page.ID)
	if len(vs) != 1 {
		t.Fatalf("visits = %v", vs)
	}
	v, _ := s.Snapshot().NodeByID(vs[0])
	if v.Kind != KindVisit || v.Page != page.ID || v.VisitSeq != 1 {
		t.Fatalf("visit = %+v", v)
	}
}

func TestLinkTraversalEdge(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
	)
	pb, _ := s.Snapshot().PageByURL("http://b.example/")
	vb := s.Snapshot().VisitsOfPage(pb.ID)[0]
	ins := s.Snapshot().InEdges(vb)
	if len(ins) != 1 || ins[0].Kind != EdgeLink {
		t.Fatalf("in edges = %+v", ins)
	}
	from, _ := s.Snapshot().NodeByID(ins[0].From)
	if from.URL != "http://a.example/" || from.Kind != KindVisit {
		t.Fatalf("edge source = %+v", from)
	}
}

// TestTypedNavigationKeepsRelationship is the §3.2 fix: unlike Places,
// the provenance store records an edge for typed navigations.
func TestTypedNavigationKeepsRelationship(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://b.example/", "B", "", event.TransTyped, t0.Add(time.Minute)),
	)
	pb, _ := s.Snapshot().PageByURL("http://b.example/")
	vb := s.Snapshot().VisitsOfPage(pb.ID)[0]
	ins := s.Snapshot().InEdges(vb)
	if len(ins) != 1 || ins[0].Kind != EdgeTyped {
		t.Fatalf("typed navigation edge missing: %+v", ins)
	}
}

// TestRevisitCreatesNewVersion pins the §3.1 cycle-breaking scheme: a
// link back to an already-visited page creates a new visit instance, so
// the instance graph stays acyclic.
func TestRevisitCreatesNewVersion(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://search.example/", "Search", "", event.TransTyped, t0),
		visit(1, "http://film.example/", "Film", "http://search.example/", event.TransLink, t0.Add(time.Minute)),
		// ... and back to the search page.
		visit(1, "http://search.example/", "Search", "http://film.example/", event.TransLink, t0.Add(2*time.Minute)),
	)
	ps, _ := s.Snapshot().PageByURL("http://search.example/")
	vs := s.Snapshot().VisitsOfPage(ps.ID)
	if len(vs) != 2 {
		t.Fatalf("search page has %d instances, want 2", len(vs))
	}
	v2, _ := s.Snapshot().NodeByID(vs[1])
	if v2.VisitSeq != 2 {
		t.Fatalf("second instance VisitSeq = %d", v2.VisitSeq)
	}
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("cycle in instance graph: %v", cycle)
	}
}

func TestCloseTimestamps(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(10*time.Minute)),
	)
	pa, _ := s.Snapshot().PageByURL("http://a.example/")
	va, _ := s.Snapshot().NodeByID(s.Snapshot().VisitsOfPage(pa.ID)[0])
	if !va.Close.Equal(t0.Add(10 * time.Minute)) {
		t.Fatalf("A close = %v, want navigation time", va.Close)
	}
	// B is still open.
	pb, _ := s.Snapshot().PageByURL("http://b.example/")
	vb, _ := s.Snapshot().NodeByID(s.Snapshot().VisitsOfPage(pb.ID)[0])
	if !vb.Close.IsZero() {
		t.Fatalf("B close = %v, want zero (still open)", vb.Close)
	}
	// Explicit close event.
	mustApply(t, s, &event.Event{Time: t0.Add(20 * time.Minute), Type: event.TypeClose, Tab: 1, URL: "http://b.example/"})
	vb, _ = s.Snapshot().NodeByID(s.Snapshot().VisitsOfPage(pb.ID)[0])
	if !vb.Close.Equal(t0.Add(20 * time.Minute)) {
		t.Fatalf("B close = %v after close event", vb.Close)
	}
}

func TestTabsIsolateContext(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(2, "http://x.example/", "X", "", event.TransTyped, t0.Add(time.Minute)),
		// Navigation in tab 1 must not chain from tab 2's page.
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(2*time.Minute)),
	)
	pb, _ := s.Snapshot().PageByURL("http://b.example/")
	ins := s.Snapshot().InEdges(s.Snapshot().VisitsOfPage(pb.ID)[0])
	if len(ins) != 1 {
		t.Fatalf("in edges = %+v", ins)
	}
	from, _ := s.Snapshot().NodeByID(ins[0].From)
	if from.URL != "http://a.example/" {
		t.Fatalf("edge from %s, want a.example", from.URL)
	}
	// Tab 1's navigation must not close tab 2's page.
	px, _ := s.Snapshot().PageByURL("http://x.example/")
	vx, _ := s.Snapshot().NodeByID(s.Snapshot().VisitsOfPage(px.ID)[0])
	if !vx.Close.IsZero() {
		t.Fatal("tab 2 page closed by tab 1 navigation")
	}
}

func TestNewTabEdge(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(2, "http://b.example/", "B", "http://a.example/", event.TransNewTab, t0.Add(time.Minute)),
	)
	pb, _ := s.Snapshot().PageByURL("http://b.example/")
	ins := s.Snapshot().InEdges(s.Snapshot().VisitsOfPage(pb.ID)[0])
	if len(ins) != 1 || ins[0].Kind != EdgeNewTab {
		t.Fatalf("new-tab edge = %+v", ins)
	}
	// Opener stays open (new tab doesn't replace it).
	pa, _ := s.Snapshot().PageByURL("http://a.example/")
	va, _ := s.Snapshot().NodeByID(s.Snapshot().VisitsOfPage(pa.ID)[0])
	if !va.Close.IsZero() {
		t.Fatal("opener closed by new-tab navigation")
	}
}

func TestSearchTermNode(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	resultsURL := "http://search.example/?q=rosebud"
	mustApply(t, s,
		visit(1, "http://home.example/", "Home", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeSearch, Tab: 1, Terms: "rosebud", URL: resultsURL},
		visit(1, resultsURL, "rosebud - Search", "http://home.example/", event.TransLink, t0.Add(time.Minute+time.Second)),
		visit(1, "http://films.example/kane", "Citizen Kane", resultsURL, event.TransSearchResult, t0.Add(2*time.Minute)),
	)
	term, ok := s.Snapshot().TermNode("rosebud")
	if !ok {
		t.Fatal("term node missing")
	}
	// term -> results visit edge
	outs := s.Snapshot().OutEdges(term.ID)
	if len(outs) != 1 || outs[0].Kind != EdgeSearchResults {
		t.Fatalf("term out edges = %+v", outs)
	}
	results, _ := s.Snapshot().NodeByID(outs[0].To)
	if results.URL != resultsURL {
		t.Fatalf("results node = %+v", results)
	}
	// home visit -> term edge
	ins := s.Snapshot().InEdges(term.ID)
	if len(ins) != 1 || ins[0].Kind != EdgeSearchIssued {
		t.Fatalf("term in edges = %+v", ins)
	}
	// Citizen Kane is a descendant of the term node.
	kane, _ := s.Snapshot().PageByURL("http://films.example/kane")
	kv := s.Snapshot().VisitsOfPage(kane.ID)[0]
	if !reaches(s.Snapshot(), term.ID, kv) {
		t.Fatal("Citizen Kane not reachable from the rosebud term node")
	}
}

// reaches reports whether to is reachable from from along edges.
func reaches(g graph.Graph, from, to NodeID) bool {
	found := false
	graph.BFS(g, []NodeID{from}, graph.Forward, func(n NodeID, _ int) bool {
		found = n == to
		return !found
	})
	return found
}

// TestSearchTermVersioned pins the §3.1 versioning rule applied to term
// nodes: each issuance creates a fresh instance (one reusable node would
// admit cycles once a descendant of earlier results re-issues the term).
func TestSearchTermVersioned(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 3; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		mustApply(t, s,
			visit(1, "http://home.example/", "Home", "", event.TransTyped, at),
			&event.Event{Time: at.Add(time.Minute), Type: event.TypeSearch, Tab: 1, Terms: "wine", URL: "http://search.example/?q=wine"},
			visit(1, "http://search.example/?q=wine", "wine - Search", "http://home.example/", event.TransLink, at.Add(time.Minute+time.Second)),
		)
	}
	if got := s.Snapshot().Stats().Terms; got != 3 {
		t.Fatalf("term instances = %d, want 3 (one per issuance)", got)
	}
	term, _ := s.Snapshot().TermNode("wine")
	if term.VisitSeq != 3 {
		t.Fatalf("latest instance VisitSeq = %d, want 3", term.VisitSeq)
	}
	if got := len(s.Snapshot().OutEdges(term.ID)); got != 1 {
		t.Fatalf("latest instance has %d result edges, want 1", got)
	}
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("cycle: %v", cycle)
	}
}

// TestTermReissueFromDescendantStaysAcyclic reproduces the cycle that a
// single reusable term node would create: search, click a result, browse
// on, and re-issue the same search from a descendant page.
func TestTermReissueFromDescendantStaysAcyclic(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	results := "http://search.example/?q=wine"
	mustApply(t, s,
		visit(1, "http://home.example/", "Home", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeSearch, Tab: 1, Terms: "wine", URL: results},
		visit(1, results, "wine - Search", "http://home.example/", event.TransLink, t0.Add(2*time.Minute)),
		visit(1, "http://wine.example/shop", "Wine shop", results, event.TransSearchResult, t0.Add(3*time.Minute)),
		// From the result page (a descendant of the term), search again.
		&event.Event{Time: t0.Add(4 * time.Minute), Type: event.TypeSearch, Tab: 1, Terms: "wine", URL: results},
		visit(1, results, "wine - Search", "http://wine.example/shop", event.TransLink, t0.Add(5*time.Minute)),
	)
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("term re-issue created a cycle: %v", cycle)
	}
}

func TestBookmarkLifecycle(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeBookmarkAdd, Tab: 1, URL: "http://a.example/", Title: "A"},
		// Later: navigate via the bookmark.
		visit(1, "http://a.example/", "A", "", event.TransBookmark, t0.Add(time.Hour)),
	)
	bms := nodesOfKind(s.Snapshot(), KindBookmark)
	if len(bms) != 1 {
		t.Fatalf("bookmarks = %v", bms)
	}
	b := bms[0]
	// visit -> bookmark (creation)
	ins := s.Snapshot().InEdges(b)
	if len(ins) != 1 || ins[0].Kind != EdgeBookmarkCreate {
		t.Fatalf("bookmark in edges = %+v", ins)
	}
	// bookmark -> later visit (click)
	outs := s.Snapshot().OutEdges(b)
	if len(outs) != 1 || outs[0].Kind != EdgeBookmarkClick {
		t.Fatalf("bookmark out edges = %+v", outs)
	}
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("bookmark cycle: %v", cycle)
	}
}

func TestDownloadLineageChain(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://forum.example/thread", "Forum", "", event.TransTyped, t0),
		visit(1, "http://shady.example/free", "Free Stuff", "http://forum.example/thread", event.TransLink, t0.Add(time.Minute)),
		&event.Event{
			Time: t0.Add(2 * time.Minute), Type: event.TypeDownload, Tab: 1,
			URL: "http://cdn.example/x.exe", Referrer: "http://shady.example/free",
			SavePath: "/home/u/x.exe", ContentType: "application/octet-stream",
		},
	)
	dls := s.Snapshot().Downloads()
	if len(dls) != 1 {
		t.Fatalf("downloads = %v", dls)
	}
	// Ancestor BFS from the download reaches the forum page.
	forum, _ := s.Snapshot().PageByURL("http://forum.example/thread")
	fv := s.Snapshot().VisitsOfPage(forum.ID)[0]
	path, ok := graph.FindFirst(s.Snapshot(), dls[0], graph.Backward, false, func(n NodeID) bool { return n == fv })
	if !ok {
		t.Fatal("forum ancestor unreachable from download")
	}
	if len(path) != 3 {
		t.Fatalf("lineage path length = %d, want 3 (download, shady, forum)", len(path))
	}
}

func TestRedirectEdges(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://short.example/r", "", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
		visit(1, "http://target.example/", "Target", "http://short.example/r", event.TransRedirectTemporary, t0.Add(time.Minute+time.Second)),
	)
	pt, _ := s.Snapshot().PageByURL("http://target.example/")
	vt := s.Snapshot().VisitsOfPage(pt.ID)[0]
	ins := s.Snapshot().InEdges(vt)
	if len(ins) != 1 || ins[0].Kind != EdgeRedirectTemporary {
		t.Fatalf("redirect edge = %+v", ins)
	}
}

func TestFormSubmitNodes(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	results := "http://store.example/results"
	mustApply(t, s,
		visit(1, "http://store.example/", "Store", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeFormSubmit, Tab: 1, URL: results, Terms: "red shoes size 9"},
		visit(1, results, "Results", "http://store.example/", event.TransFormSubmit, t0.Add(time.Minute+time.Second)),
	)
	forms := nodesOfKind(s.Snapshot(), KindFormEntry)
	if len(forms) != 1 {
		t.Fatalf("form nodes = %v", forms)
	}
	f, _ := s.Snapshot().NodeByID(forms[0])
	if f.Text != "red shoes size 9" {
		t.Fatalf("form text = %q", f.Text)
	}
	outs := s.Snapshot().OutEdges(forms[0])
	if len(outs) != 1 || outs[0].Kind != EdgeFormResults {
		t.Fatalf("form out edges = %+v", outs)
	}
}

func TestOpenBetween(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	for i := 0; i < 10; i++ {
		mustApply(t, s, visit(1, fmt.Sprintf("http://p%d.example/", i), "", "", event.TransTyped, t0.Add(time.Duration(i)*time.Hour)))
	}
	got := s.Snapshot().OpenBetween(t0.Add(3*time.Hour), t0.Add(6*time.Hour))
	if len(got) != 3 {
		t.Fatalf("OpenBetween = %d visits, want 3", len(got))
	}
}

func TestPersistenceAcrossReopenAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	resultsURL := "http://search.example/?q=rosebud"
	mustApply(t, s,
		visit(1, "http://home.example/", "Home", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeSearch, Tab: 1, Terms: "rosebud", URL: resultsURL},
		visit(1, resultsURL, "rosebud - Search", "http://home.example/", event.TransLink, t0.Add(time.Minute+time.Second)),
	)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint: click a result; edge must attach to recovered state.
	mustApply(t, s, visit(1, "http://films.example/kane", "Citizen Kane", resultsURL, event.TransSearchResult, t0.Add(2*time.Minute)))
	want := s.Snapshot().Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	defer s2.Close()
	if s2.Snapshot().Stats() != want {
		t.Fatalf("stats after reopen = %+v, want %+v", s2.Snapshot().Stats(), want)
	}
	term, ok := s2.Snapshot().TermNode("rosebud")
	if !ok {
		t.Fatal("term lost")
	}
	kane, _ := s2.Snapshot().PageByURL("http://films.example/kane")
	kv := s2.Snapshot().VisitsOfPage(kane.ID)
	if len(kv) != 1 {
		t.Fatal("kane visit lost")
	}
	if !reaches(s2.Snapshot(), term.ID, kv[0]) {
		t.Fatal("kane unreachable from term after recovery")
	}
	// Ingest continues: new navigation chains from the recovered tab state.
	mustApply(t, s2, visit(1, "http://films.example/kane/cast", "Cast", "http://films.example/kane", event.TransLink, t0.Add(3*time.Minute)))
	cast, _ := s2.Snapshot().PageByURL("http://films.example/kane/cast")
	ins := s2.Snapshot().InEdges(s2.Snapshot().VisitsOfPage(cast.ID)[0])
	if len(ins) != 1 || ins[0].Kind != EdgeLink {
		t.Fatalf("post-recovery edge = %+v", ins)
	}
}

func TestDAGInvariantUnderLongSession(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	// A tight loop between three pages, many times over — the classic
	// cycle-generating browse pattern.
	urls := []string{"http://a.example/", "http://b.example/", "http://c.example/"}
	prev := ""
	for i := 0; i < 60; i++ {
		u := urls[i%3]
		tr := event.TransLink
		if prev == "" {
			tr = event.TransTyped
		}
		mustApply(t, s, visit(1, u, "", prev, tr, t0.Add(time.Duration(i)*time.Minute)))
		prev = u
	}
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("instance graph has a cycle: %v", cycle)
	}
	st := s.Snapshot().Stats()
	if st.Pages != 3 || st.Visits != 60 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVersionEdgesModeAllowsPageCycles(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Mode: VersionEdges})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
		visit(1, "http://a.example/", "A", "http://b.example/", event.TransLink, t0.Add(2*time.Minute)),
	)
	st := s.Snapshot().Stats()
	if st.Visits != 0 {
		t.Fatalf("edge-versioned store created %d visit instances", st.Visits)
	}
	if st.Pages != 2 {
		t.Fatalf("pages = %d", st.Pages)
	}
	if cycle := s.VerifyDAG(); cycle == nil {
		t.Fatal("edge-versioned mode should permit a page-level cycle here")
	}
	// The edges still carry timestamps that order the traversals.
	pa, _ := s.Snapshot().PageByURL("http://a.example/")
	for _, e := range s.Snapshot().InEdges(pa.ID) {
		if e.At.IsZero() {
			t.Fatal("edge missing timestamp")
		}
	}
}

func TestStatsCounts(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		&event.Event{Time: t0.Add(time.Minute), Type: event.TypeBookmarkAdd, Tab: 1, URL: "http://a.example/", Title: "A"},
		&event.Event{Time: t0.Add(2 * time.Minute), Type: event.TypeSearch, Tab: 1, Terms: "q", URL: "http://s.example/?q=q"},
		visit(1, "http://s.example/?q=q", "q", "http://a.example/", event.TransLink, t0.Add(3*time.Minute)),
		&event.Event{Time: t0.Add(4 * time.Minute), Type: event.TypeDownload, Tab: 1, URL: "http://f.example/f.pdf", SavePath: "/tmp/f.pdf"},
	)
	st := s.Snapshot().Stats()
	if st.Pages != 2 || st.Visits != 2 || st.Bookmarks != 1 || st.Terms != 1 || st.Downloads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Nodes != st.Pages+st.Visits+st.Bookmarks+st.Terms+st.Downloads+st.Forms {
		t.Fatalf("node count inconsistent: %+v", st)
	}
}

func TestEdgesAlwaysPointForwardInTime(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	prev := ""
	for i := 0; i < 30; i++ {
		u := fmt.Sprintf("http://p%d.example/", i%7)
		tr := event.TransLink
		if i == 0 {
			tr = event.TransTyped
		}
		mustApply(t, s, visit(1, u, "", prev, tr, t0.Add(time.Duration(i)*time.Minute)))
		prev = u
	}
	bad := 0
	s.Snapshot().NodesSince(0, func(n Node) bool {
		for _, e := range s.Snapshot().OutEdges(n.ID) {
			to, _ := s.Snapshot().NodeByID(e.To)
			if to.Open.Before(n.Open) {
				bad++
			}
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d edges point backward in time", bad)
	}
}

package query

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

type fixture struct {
	s   *provgraph.Store
	dir string
	now time.Time
	tab int
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dir := t.TempDir()
	s, err := provgraph.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return &fixture{s: s, dir: dir, now: t0, tab: 1}
}

func (f *fixture) tick() time.Time {
	f.now = f.now.Add(30 * time.Second)
	return f.now
}

func (f *fixture) apply(t *testing.T, ev *event.Event) {
	t.Helper()
	if err := f.s.Apply(ev); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) visit(t *testing.T, url, title, ref string, tr event.Transition) {
	f.apply(t, &event.Event{Time: f.tick(), Type: event.TypeVisit, Tab: f.tab, URL: url, Title: title, Referrer: ref, Transition: tr})
}

// search simulates: user on `from` issues a search for terms, landing on
// the results page.
func (f *fixture) search(t *testing.T, from, terms string) string {
	resultsURL := "http://search.example/?q=" + strings.ReplaceAll(terms, " ", "+")
	f.apply(t, &event.Event{Time: f.tick(), Type: event.TypeSearch, Tab: f.tab, Terms: terms, URL: resultsURL})
	f.visit(t, resultsURL, terms+" - Web Search", from, event.TransLink)
	return resultsURL
}

func (f *fixture) download(t *testing.T, url, ref, save string) {
	f.apply(t, &event.Event{Time: f.tick(), Type: event.TypeDownload, Tab: f.tab, URL: url, Referrer: ref, SavePath: save, ContentType: "application/octet-stream"})
}

// buildRosebudHistory reproduces §2.1: search "rosebud", click through to
// Citizen Kane, plus unrelated noise pages.
func buildRosebudHistory(t *testing.T, f *fixture) {
	f.visit(t, "http://home.example/", "Home", "", event.TransTyped)
	results := f.search(t, "http://home.example/", "rosebud")
	f.visit(t, "http://films.example/citizen-kane", "Citizen Kane (1941) - Film Archive", results, event.TransSearchResult)
	// Noise: unrelated browsing.
	for i := 0; i < 20; i++ {
		f.visit(t, fmt.Sprintf("http://news.example/story%d", i), fmt.Sprintf("News story %d", i), "", event.TransTyped)
	}
}

func TestContextualSearchFindsCausalDescendant(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})

	// Baseline: the textual search cannot see Citizen Kane.
	base, _, _ := e.View().TextualSearch(ctx, "rosebud", 10)
	for _, h := range base {
		if strings.Contains(h.URL, "citizen-kane") {
			t.Fatal("textual baseline unexpectedly returned Citizen Kane")
		}
	}
	if len(base) == 0 {
		t.Fatal("textual baseline found nothing at all")
	}

	// Provenance-aware search returns it.
	hits, meta, _ := e.View().Search(ctx, "rosebud", 10)
	found := -1
	for i, h := range hits {
		if strings.Contains(h.URL, "citizen-kane") {
			found = i
			break
		}
	}
	if found < 0 {
		t.Fatalf("contextual search missed Citizen Kane; hits=%+v", hits)
	}
	if found > 2 {
		t.Fatalf("Citizen Kane ranked %d; want top-3 (first-generation descendant gets substantial weight)", found+1)
	}
	kane := hits[found]
	if kane.TextScore != 0 {
		t.Fatalf("Citizen Kane TextScore = %f, want 0 (no textual match)", kane.TextScore)
	}
	if kane.ProvScore <= 0 {
		t.Fatal("Citizen Kane has no provenance score")
	}
	if meta.Elapsed <= 0 || meta.Expanded == 0 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestContextualSearchRanksSearchPageToo(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})
	hits, _, _ := e.View().Search(ctx, "rosebud", 10)
	foundResults := false
	for _, h := range hits {
		if strings.Contains(h.URL, "search.example") {
			foundResults = true
			if h.TextScore <= 0 {
				t.Fatal("search page should match textually")
			}
		}
	}
	if !foundResults {
		t.Fatal("results page missing from contextual search")
	}
}

func TestContextualSearchWithHITS(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{UseHITS: true})
	hits, _, _ := e.View().Search(ctx, "rosebud", 10)
	found := false
	for _, h := range hits {
		if strings.Contains(h.URL, "citizen-kane") {
			found = true
		}
	}
	if !found {
		t.Fatal("HITS-blended search lost Citizen Kane")
	}
}

func TestContextualSearchEmptyQuery(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})
	hits, _, _ := e.View().Search(ctx, "", 10)
	if len(hits) != 0 {
		t.Fatalf("empty query returned %d hits", len(hits))
	}
}

func TestContextualSearchBudgetTruncates(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRosebudHistory(t, f)
	// 1 ns budget: the expansion must stop immediately and flag it.
	e := NewEngine(f.s, Options{Budget: time.Nanosecond})
	_, meta, _ := e.View().Search(ctx, "rosebud", 10)
	if !meta.Truncated {
		t.Fatal("nanosecond budget not reported as truncated")
	}
}

// buildGardenerHistory reproduces §2.2: a gardener whose rosebud-related
// browsing is all about flowers.
func buildGardenerHistory(t *testing.T, f *fixture) {
	f.visit(t, "http://home.example/", "Home", "", event.TransTyped)
	results := f.search(t, "http://home.example/", "rosebud")
	f.visit(t, "http://garden.example/rosebud-care", "Rosebud care guide - flower gardening", results, event.TransSearchResult)
	f.visit(t, "http://garden.example/pruning", "Pruning flower shrubs", "http://garden.example/rosebud-care", event.TransLink)
	results2 := f.search(t, "http://garden.example/pruning", "rosebud fertilizer")
	f.visit(t, "http://garden.example/fertilizer", "Flower fertilizer guide", results2, event.TransSearchResult)
	for i := 0; i < 10; i++ {
		f.visit(t, fmt.Sprintf("http://weather.example/day%d", i), "Weather forecast", "", event.TransTyped)
	}
}

func TestPersonalizeFindsAssociatedTerm(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildGardenerHistory(t, f)
	e := NewEngine(f.s, Options{})
	suggestions, _, _ := e.View().Personalize(ctx, "rosebud", 10)
	if len(suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	pos := -1
	for i, s := range suggestions {
		if s.Term == "flower" || s.Term == "gardening" || s.Term == "fertilizer" {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 4 {
		t.Fatalf("no garden term in top-5 suggestions: %+v", suggestions)
	}
	// The query term itself must not be suggested.
	for _, s := range suggestions {
		if s.Term == "rosebud" {
			t.Fatal("query term suggested back")
		}
	}
}

func TestAugmentQuery(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildGardenerHistory(t, f)
	e := NewEngine(f.s, Options{})
	augmented, _, _ := e.View().AugmentQuery(ctx, "rosebud", 0)
	if augmented == "rosebud" {
		t.Fatal("query not augmented")
	}
	if !strings.HasPrefix(augmented, "rosebud ") {
		t.Fatalf("augmented = %q", augmented)
	}
	// Privacy property: the augmented query is all that leaves; it must
	// contain exactly one extra term, not history contents.
	if got := len(strings.Fields(augmented)); got != 2 {
		t.Fatalf("augmented query has %d fields, want 2", got)
	}
}

func TestAugmentQueryNoHistory(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	f.visit(t, "http://only.example/", "Only page", "", event.TransTyped)
	e := NewEngine(f.s, Options{})
	augmented, _, _ := e.View().AugmentQuery(ctx, "quantum chromodynamics", 0.001)
	if augmented != "quantum chromodynamics" {
		t.Fatalf("augmented unrelated query: %q", augmented)
	}
}

// buildWineHistory reproduces §2.3: wine pages browsed while shopping for
// plane tickets, plus many other wine pages at other times.
func buildWineHistory(t *testing.T, f *fixture) {
	// Other wine browsing, days earlier.
	for i := 0; i < 8; i++ {
		f.visit(t, fmt.Sprintf("http://wine.example/review%d", i), fmt.Sprintf("Wine review %d", i), "", event.TransTyped)
	}
	// Jump ahead two days: the session with plane tickets open.
	f.now = f.now.Add(48 * time.Hour)
	f.tab = 1
	f.visit(t, "http://tickets.example/paris", "Plane tickets to Paris", "", event.TransTyped)
	f.tab = 2
	f.visit(t, "http://wine.example/chateau-margaux", "Chateau Margaux 1995 - wine shop", "", event.TransTyped)
	f.apply(t, &event.Event{Time: f.tick(), Type: event.TypeClose, Tab: 2, URL: "http://wine.example/chateau-margaux"})
	f.tab = 1
	f.apply(t, &event.Event{Time: f.tick(), Type: event.TypeClose, Tab: 1, URL: "http://tickets.example/paris"})
	// Later, unrelated.
	f.now = f.now.Add(24 * time.Hour)
	f.visit(t, "http://wine.example/another", "Wine of the month", "", event.TransTyped)
}

func TestTimeContextualSearch(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildWineHistory(t, f)
	e := NewEngine(f.s, Options{})
	hits, meta, _ := e.View().TimeContextualSearch(ctx, "wine", "plane tickets", 5)
	if len(hits) == 0 {
		t.Fatal("no time-contextual hits")
	}
	if !strings.Contains(hits[0].URL, "chateau-margaux") {
		t.Fatalf("top hit = %s, want the wine page co-open with tickets; hits=%+v", hits[0].URL, hits)
	}
	if hits[0].Overlap <= 0 {
		t.Fatal("top hit has no overlap evidence")
	}
	if meta.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
	// A plain wine search drowns the specific page in the other nine.
	plain, _, _ := e.View().TextualSearch(ctx, "wine", 0)
	if len(plain) < 9 {
		t.Fatalf("plain search found %d wine pages; fixture broken", len(plain))
	}
}

func TestTimeContextualNoAnchorMatch(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildWineHistory(t, f)
	e := NewEngine(f.s, Options{})
	hits, _, _ := e.View().TimeContextualSearch(ctx, "wine", "zebra migration", 5)
	if len(hits) != 0 {
		t.Fatalf("hits with absent anchor: %+v", hits)
	}
}

// buildMalwareHistory reproduces §2.4: a well-known forum leads through
// an unfamiliar chain to a malicious download.
func buildMalwareHistory(t *testing.T, f *fixture) {
	// The forum is visited often: recognizable.
	for i := 0; i < 5; i++ {
		f.visit(t, "http://forum.example/", "The Big Forum", "", event.TransTyped)
	}
	f.visit(t, "http://forum.example/thread/123", "forum thread: free codecs!", "http://forum.example/", event.TransLink)
	f.visit(t, "http://shady.example/landing", "FREE CODECS", "http://forum.example/thread/123", event.TransLink)
	f.visit(t, "http://shadier.example/dl", "", "http://shady.example/landing", event.TransRedirectTemporary)
	f.download(t, "http://cdn.shadier.example/codec.exe", "http://shadier.example/dl", "/home/u/codec.exe")
	// A second download from the same shady page, reached the same way
	// (typing the URL would make the page "recognizable").
	f.visit(t, "http://forum.example/thread/123", "forum thread: free codecs!", "http://forum.example/", event.TransLink)
	f.visit(t, "http://shady.example/landing", "FREE CODECS", "http://forum.example/thread/123", event.TransLink)
	f.download(t, "http://cdn.shadier.example/toolbar.exe", "http://shady.example/landing", "/home/u/toolbar.exe")
}

func TestDownloadLineageFindsRecognizableAncestor(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildMalwareHistory(t, f)
	e := NewEngine(f.s, Options{})
	dls := f.s.Snapshot().Downloads()
	if len(dls) != 2 {
		t.Fatalf("downloads = %d", len(dls))
	}
	lin, meta, _ := e.View().DownloadLineage(ctx, dls[0])
	if !lin.Found {
		t.Fatal("no recognizable ancestor found")
	}
	last := lin.Path[len(lin.Path)-1]
	if !strings.HasPrefix(last.URL, "http://forum.example/") {
		t.Fatalf("recognizable ancestor = %s, want the forum", last.URL)
	}
	if lin.Path[0].Kind != provgraph.KindDownload {
		t.Fatalf("path[0] = %v, want the download", lin.Path[0].Kind)
	}
	// The chain passes through the shady redirect.
	sawShady := false
	for _, n := range lin.Path {
		if strings.Contains(n.URL, "shad") {
			sawShady = true
		}
	}
	if !sawShady {
		t.Fatalf("lineage skipped the shady chain: %+v", lin.Path)
	}
	if meta.Truncated {
		t.Fatal("tiny history truncated")
	}
}

func TestDescendantDownloads(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildMalwareHistory(t, f)
	e := NewEngine(f.s, Options{})
	// The user distrusts the shady landing page: find everything
	// downloaded from it (both visit instances).
	dls, _, _ := e.View().DescendantDownloads(ctx, "http://shady.example/landing")
	if len(dls) != 2 {
		t.Fatalf("descendant downloads = %d, want 2", len(dls))
	}
	saves := map[string]bool{}
	for _, d := range dls {
		saves[d.Text] = true
	}
	if !saves["/home/u/codec.exe"] || !saves["/home/u/toolbar.exe"] {
		t.Fatalf("wrong downloads: %v", saves)
	}
}

func TestDescendantDownloadsUnknownPage(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildMalwareHistory(t, f)
	e := NewEngine(f.s, Options{})
	dls, _, _ := e.View().DescendantDownloads(ctx, "http://never-visited.example/")
	if len(dls) != 0 {
		t.Fatalf("downloads for unknown page: %v", dls)
	}
}

func TestAncestorTerms(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	f.visit(t, "http://home.example/", "Home", "", event.TransTyped)
	results := f.search(t, "http://home.example/", "free codecs")
	f.visit(t, "http://shady.example/", "FREE", results, event.TransSearchResult)
	f.download(t, "http://cdn.example/x.exe", "http://shady.example/", "/tmp/x.exe")
	e := NewEngine(f.s, Options{})
	dls := f.s.Snapshot().Downloads()
	terms, _, _ := e.View().AncestorTerms(ctx, dls[0])
	if len(terms) != 1 || terms[0] != "free codecs" {
		t.Fatalf("ancestor terms = %v", terms)
	}
}

func TestRecognizablePredicate(t *testing.T) {
	f := newFixture(t)
	// One-off page: not recognizable (reached by link).
	f.visit(t, "http://popular.example/", "Popular", "", event.TransTyped)
	f.visit(t, "http://oneoff.example/", "One off", "http://popular.example/", event.TransLink)
	// Bookmarked page: recognizable despite one visit.
	f.visit(t, "http://marked.example/", "Marked", "http://oneoff.example/", event.TransLink)
	f.apply(t, &event.Event{Time: f.tick(), Type: event.TypeBookmarkAdd, Tab: 1, URL: "http://marked.example/", Title: "Marked"})
	e := NewEngine(f.s, Options{})

	page := func(url string) provgraph.Node {
		p, ok := f.s.Snapshot().PageByURL(url)
		if !ok {
			t.Fatalf("page %s missing", url)
		}
		return p
	}
	if recognizable(t, e, page("http://oneoff.example/")) {
		t.Fatal("one-off linked page recognizable")
	}
	if !recognizable(t, e, page("http://popular.example/")) {
		t.Fatal("typed page not recognizable")
	}
	if !recognizable(t, e, page("http://marked.example/")) {
		t.Fatal("bookmarked page not recognizable")
	}
}

// recognizable judges n on a Run of a fresh View, as lineage queries
// do, under e's base options.
func recognizable(t *testing.T, e *Engine, n provgraph.Node) bool {
	t.Helper()
	r, err := e.View().Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finish()
	return r.Recognizable(n)
}

func TestLineageNoRecognizableAncestor(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	// Single unfamiliar chain, nothing typed or repeated... except the
	// first navigation must come from somewhere; use a link-only chain by
	// starting with a search-free, referrer-free link (first visit has no
	// origin edge at all).
	f.visit(t, "http://unknown1.example/", "U1", "", event.TransLink)
	f.visit(t, "http://unknown2.example/", "U2", "http://unknown1.example/", event.TransLink)
	f.download(t, "http://unknown2.example/f.bin", "http://unknown2.example/", "/tmp/f.bin")
	e := NewEngine(f.s, Options{})
	lin, _, _ := e.View().DownloadLineage(ctx, f.s.Snapshot().Downloads()[0])
	if lin.Found {
		t.Fatal("found a recognizable ancestor in an unrecognizable chain")
	}
	if len(lin.Path) < 2 {
		t.Fatalf("fallback root chain too short: %+v", lin.Path)
	}
}

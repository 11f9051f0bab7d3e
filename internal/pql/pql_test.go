package pql

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

// buildStore ingests the §2.4 forensic scenario.
func buildStore(t *testing.T) (*provgraph.Store, *query.Engine) {
	t.Helper()
	s, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	now := t0
	tick := func() time.Time { now = now.Add(time.Minute); return now }
	apply := func(ev *event.Event) {
		t.Helper()
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	vis := func(url, title, ref string, tr event.Transition) {
		apply(&event.Event{Time: tick(), Type: event.TypeVisit, Tab: 1, URL: url, Title: title, Referrer: ref, Transition: tr})
	}
	for i := 0; i < 4; i++ {
		vis("http://forum.example/", "The Forum", "", event.TransTyped)
	}
	apply(&event.Event{Time: tick(), Type: event.TypeSearch, Tab: 1, Terms: "free codecs", URL: "http://search.example/?q=free+codecs"})
	vis("http://search.example/?q=free+codecs", "free codecs - Search", "http://forum.example/", event.TransLink)
	vis("http://shady.example/", "FREE CODECS HERE", "http://search.example/?q=free+codecs", event.TransSearchResult)
	apply(&event.Event{Time: tick(), Type: event.TypeDownload, Tab: 1, URL: "http://cdn.example/codec.exe", Referrer: "http://shady.example/", SavePath: "/home/u/codec.exe"})
	apply(&event.Event{Time: tick(), Type: event.TypeDownload, Tab: 1, URL: "http://cdn.example/extra.exe", Referrer: "http://shady.example/", SavePath: "/home/u/extra.exe"})
	return s, query.NewEngine(s, query.Options{})
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate(url(\"x\"))",
		"ancestors url(\"x\")",
		"ancestors(url(x))",
		"ancestors(url(\"x\")) where",
		"ancestors(url(\"x\")) where kind == page",
		"ancestors(url(\"x\")) limit -1",
		"ancestors(url(\"x\")) limit abc",
		"first ancestor of url(\"x\")", // first requires where
		"ancestors(url(\"x\")) trailing garbage",
		"descendants(node(notanumber))",
		"ancestors(url(\"unterminated))",
		"ancestors(url(\"x\")) where visits ~ 3",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseForms(t *testing.T) {
	good := []string{
		`ancestors(url("http://a/"))`,
		`descendants(term("rosebud")) where kind = download limit 5`,
		`first ancestor of download("/home/u/x.exe") where recognizable`,
		`first descendant of url("http://a/") where kind = download`,
		`lineage of download("/home/u/x.exe")`,
		`ancestors(node(42)) where visits >= 3 and title ~ "kane"`,
		`descendants(url("http://a/")) where url ~ "cdn" and kind = download`,
	}
	for _, src := range good {
		if _, err := Parse(src); err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
	}
}

func TestDescendantDownloadsQuery(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `descendants(url("http://shady.example/")) where kind = download`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("downloads = %d, want 2", len(res.Nodes))
	}
	for _, n := range res.Nodes {
		if n.Kind != provgraph.KindDownload {
			t.Fatalf("non-download in results: %+v", n)
		}
	}
}

func TestLineageQuery(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `lineage of download("/home/u/codec.exe")`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.IsPath {
		t.Fatalf("lineage: found=%v path=%v", res.Found, res.IsPath)
	}
	last := res.Nodes[len(res.Nodes)-1]
	if !strings.HasPrefix(last.URL, "http://forum.example/") {
		t.Fatalf("lineage ends at %s, want the forum", last.URL)
	}
	if res.Nodes[0].Kind != provgraph.KindDownload {
		t.Fatalf("path starts at %v, want the download", res.Nodes[0].Kind)
	}
}

func TestFirstAncestorWithPredicate(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `first ancestor of download("/home/u/codec.exe") where kind = search-term`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("search term not found in lineage")
	}
	if got := res.Nodes[len(res.Nodes)-1].Text; got != "free codecs" {
		t.Fatalf("found term %q", got)
	}
}

func TestAncestorsKindFilter(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `ancestors(download("/home/u/codec.exe")) where kind = search-term`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || res.Nodes[0].Text != "free codecs" {
		t.Fatalf("ancestors = %+v", res.Nodes)
	}
}

func TestDescendantsOfTerm(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `descendants(term("free codecs")) where kind = download`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("term descendants = %d downloads, want 2", len(res.Nodes))
	}
}

func TestVisitsPredicate(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `ancestors(download("/home/u/codec.exe")) where visits >= 4`)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Nodes {
		if !strings.HasPrefix(n.URL, "http://forum.example/") {
			t.Fatalf("unexpected high-visit ancestor %s", n.URL)
		}
	}
	if len(res.Nodes) == 0 {
		t.Fatal("forum visits not matched")
	}
}

func TestLimit(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `ancestors(download("/home/u/codec.exe")) limit 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("limit 2 returned %d", len(res.Nodes))
	}
}

func TestTitleSubstringPredicate(t *testing.T) {
	_, e := buildStore(t)
	res, _, err := Eval(context.Background(), e.View(), `ancestors(download("/home/u/codec.exe")) where title ~ "codecs here"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) == 0 || !strings.Contains(res.Nodes[0].URL, "shady") {
		t.Fatalf("title match = %+v", res.Nodes)
	}
}

func TestUnknownSourceErrors(t *testing.T) {
	_, e := buildStore(t)
	cases := []string{
		`ancestors(url("http://nope.example/"))`,
		`lineage of download("/nope")`,
		`descendants(term("nope"))`,
		`ancestors(node(999999))`,
	}
	for _, src := range cases {
		if _, _, err := Eval(context.Background(), e.View(), src); err == nil {
			t.Fatalf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestNodeSource(t *testing.T) {
	s, e := buildStore(t)
	dl := s.Snapshot().Downloads()[0]
	res, _, err := Eval(context.Background(), e.View(), `ancestors(node(`+itoa(uint64(dl))+`)) where kind = page`)
	if err != nil {
		t.Fatal(err)
	}
	// Page identity nodes don't participate in edges; ancestors are
	// visits, so this must be empty.
	if len(res.Nodes) != 0 {
		t.Fatalf("page-kind ancestors = %+v", res.Nodes)
	}
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestSentinelErrors pins the error taxonomy of the v2 API: PQL errors
// dispatchable with errors.Is instead of string matching.
func TestSentinelErrors(t *testing.T) {
	_, e := buildStore(t)
	v := e.View()
	ctx := context.Background()
	if _, _, err := Eval(ctx, v, `frobnicate(`); !errors.Is(err, query.ErrBadQuery) {
		t.Fatalf("parse error = %v, want ErrBadQuery", err)
	}
	if _, _, err := Eval(ctx, v, `lineage of download("/nope")`); !errors.Is(err, query.ErrNoSuchDownload) {
		t.Fatalf("missing download = %v, want ErrNoSuchDownload", err)
	}
}

// TestEvalReportsGeneration checks PQL Meta carries the View's pinned
// generation like every other query.
func TestEvalReportsGeneration(t *testing.T) {
	_, e := buildStore(t)
	v := e.View()
	_, meta, err := Eval(context.Background(), v, `ancestors(download("/home/u/codec.exe"))`)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != v.Generation() || meta.Generation == 0 {
		t.Fatalf("meta.Generation = %d, view = %d", meta.Generation, v.Generation())
	}
}

// TestCanceledStopsAtFirstVisit: the traversals poll the budget only
// every pollEvery visits, but the first poll is on the first visit, so a
// query begun with a canceled context finds nothing.
func TestCanceledStopsAtFirstVisit(t *testing.T) {
	_, e := buildStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, src := range []string{
		`ancestors(download("/home/u/codec.exe"))`,
		`first ancestor of download("/home/u/codec.exe") where kind = search-term`,
	} {
		res, meta, err := Eval(ctx, e.View(), src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// A path query still reports the path to the visit it stopped at.
		if !meta.Canceled || res.Found || (!res.IsPath && len(res.Nodes) != 0) {
			t.Fatalf("%s: canceled query returned %+v, meta %+v", src, res, meta)
		}
	}
}

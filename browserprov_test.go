package browserprov

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

func openHistory(t *testing.T) *History {
	t.Helper()
	h, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

// feedRosebud drives the §2.1 scenario through the public API.
func feedRosebud(t *testing.T, h *History) {
	t.Helper()
	now := t0
	tick := func() time.Time { now = now.Add(30 * time.Second); return now }
	evs := []*Event{
		{Time: tick(), Type: TypeVisit, Tab: 1, URL: "http://home.example/", Title: "Home", Transition: TransTyped},
		{Time: tick(), Type: TypeSearch, Tab: 1, Terms: "rosebud", URL: "http://search.example/?q=rosebud"},
		{Time: tick(), Type: TypeVisit, Tab: 1, URL: "http://search.example/?q=rosebud", Title: "rosebud - Web Search", Referrer: "http://home.example/", Transition: TransLink},
		{Time: tick(), Type: TypeVisit, Tab: 1, URL: "http://films.example/citizen-kane", Title: "Citizen Kane (1941)", Referrer: "http://search.example/?q=rosebud", Transition: TransSearchResult},
		{Time: tick(), Type: TypeDownload, Tab: 1, URL: "http://films.example/kane-poster.jpg", Referrer: "http://films.example/citizen-kane", SavePath: "/downloads/kane-poster.jpg"},
		{Time: tick(), Type: TypeClose, Tab: 1, URL: "http://films.example/citizen-kane"},
	}
	for _, ev := range evs {
		if err := h.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPISearch(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	hits, meta, _ := h.View().Search(ctx, "rosebud", 10)
	found := false
	for _, hit := range hits {
		if strings.Contains(hit.URL, "citizen-kane") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Search missed the causal page: %+v", hits)
	}
	if meta.Elapsed <= 0 {
		t.Fatal("no latency recorded")
	}
	// Baseline misses it — and now reports Meta like every other query.
	base, bmeta, err := h.View().TextualSearch(ctx, "rosebud", 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, hit := range base {
		if strings.Contains(hit.URL, "citizen-kane") {
			t.Fatal("textual baseline found the causal page")
		}
	}
	if bmeta.Elapsed <= 0 || bmeta.Generation == 0 {
		t.Fatalf("textual search meta = %+v, want latency and generation", bmeta)
	}
}

func TestPublicAPIIncrementalIndex(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	// First query builds the index.
	if hits, _, _ := h.View().Search(ctx, "rosebud", 10); len(hits) == 0 {
		t.Fatal("no hits")
	}
	// New activity after the engine exists must become searchable.
	if err := h.Apply(&Event{Time: t0.Add(time.Hour), Type: TypeVisit, Tab: 2, URL: "http://xylophone.example/", Title: "Xylophone lessons", Transition: TransTyped}); err != nil {
		t.Fatal(err)
	}
	hits, _, err := h.View().TextualSearch(ctx, "xylophone", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("new page not indexed: %+v", hits)
	}
}

func TestPublicAPILineage(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	lin, _, err := h.View().DownloadLineageByPath(ctx, "/downloads/kane-poster.jpg")
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Path) < 2 {
		t.Fatalf("path = %+v", lin.Path)
	}
	if _, _, err := h.View().DownloadLineageByPath(ctx, "/nope"); !errors.Is(err, ErrNoSuchDownload) {
		t.Fatalf("missing download err = %v, want ErrNoSuchDownload", err)
	}
}

func TestPublicAPIPQL(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	res, _, err := QueryOn(ctx, h.View(), `descendants(term("rosebud")) where kind = download`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 1 || res.Nodes[0].Text != "/downloads/kane-poster.jpg" {
		t.Fatalf("PQL result = %+v", res.Nodes)
	}
	if _, _, err := QueryOn(ctx, h.View(), `this is not pql`); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("bad query err = %v, want ErrBadQuery", err)
	}
}

func TestPublicAPIDescendantDownloads(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	dls, _, _ := h.View().DescendantDownloads(ctx, "http://search.example/?q=rosebud")
	if len(dls) != 1 {
		t.Fatalf("descendant downloads = %+v", dls)
	}
}

func TestPublicAPIPersistence(t *testing.T) {
	dir := t.TempDir()
	h, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	feedRosebud(t, h)
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	statsBefore := h.Stats()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.Stats() != statsBefore {
		t.Fatalf("stats after reopen = %+v, want %+v", h2.Stats(), statsBefore)
	}
	if h2.SizeOnDisk() == 0 {
		t.Fatal("SizeOnDisk = 0 after checkpoint")
	}
}

func TestPublicAPIDAGInvariant(t *testing.T) {
	h := openHistory(t)
	feedRosebud(t, h)
	if cycle := h.VerifyDAG(); cycle != nil {
		t.Fatalf("cycle: %v", cycle)
	}
}

func TestPublicAPISessions(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	// A second sitting hours later.
	late := t0.Add(6 * time.Hour)
	if err := h.Apply(&Event{Time: late, Type: TypeVisit, Tab: 2, URL: "http://late.example/", Title: "Late", Transition: TransTyped}); err != nil {
		t.Fatal(err)
	}
	sessions, _, _ := h.View().Sessions(ctx)
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	recents, _, _ := h.View().SummarizeSessions(ctx, 1)
	if len(recents) != 1 || recents[0].Visits != 1 {
		t.Fatalf("recents = %+v", recents)
	}
}

func TestPublicAPIOpenBetween(t *testing.T) {
	h := openHistory(t)
	feedRosebud(t, h)
	got := h.OpenBetween(t0, t0.Add(time.Hour))
	if len(got) == 0 {
		t.Fatal("no visits in window")
	}
}

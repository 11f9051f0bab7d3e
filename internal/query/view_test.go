package query

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
)

func TestViewPinsGeneration(t *testing.T) {
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})
	ctx := context.Background()

	v := e.View()
	gen := v.Generation()
	if gen == 0 {
		t.Fatal("view at generation 0")
	}

	// Writes move the store, not the held View.
	f.visit(t, "http://after.example/", "After pin", "", event.TransTyped)
	if f.s.Generation() == gen {
		t.Fatal("store generation did not move")
	}

	_, m1, err := v.Search(ctx, "rosebud", 10)
	if err != nil {
		t.Fatal(err)
	}
	_, m2, err := v.TextualSearch(ctx, "rosebud", 10)
	if err != nil {
		t.Fatal(err)
	}
	_, m3, err := v.Personalize(ctx, "rosebud", 5)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Generation != gen || m2.Generation != gen || m3.Generation != gen {
		t.Fatalf("generations diverged: %d %d %d, want %d", m1.Generation, m2.Generation, m3.Generation, gen)
	}
	// The pinned View must not see the post-pin page.
	hits, _, _ := v.TextualSearch(ctx, "after pin", 10)
	if len(hits) != 0 {
		t.Fatalf("pinned view leaked post-pin writes: %+v", hits)
	}
	// A fresh View does.
	fresh, _, _ := e.View().TextualSearch(ctx, "after pin", 10)
	if len(fresh) != 1 {
		t.Fatalf("fresh view missed new page: %+v", fresh)
	}
}

// TestPerCallOptionsShareSnapshot is the no-rebuild regression guard:
// two queries with different per-call options on one View must share
// the same snapshot pointer and the same text index — option changes
// cost zero re-indexing.
func TestPerCallOptionsShareSnapshot(t *testing.T) {
	f := newFixture(t)
	// Chain: seed -> d1 -> d2 -> d3, so expansion depth discriminates.
	f.visit(t, "http://seed.example/", "Anchorword", "", event.TransTyped)
	f.visit(t, "http://d1.example/", "One", "http://seed.example/", event.TransLink)
	f.visit(t, "http://d2.example/", "Two", "http://d1.example/", event.TransLink)
	f.visit(t, "http://d3.example/", "Three", "http://d2.example/", event.TransLink)
	e := NewEngine(f.s, Options{})
	ctx := context.Background()

	v := e.View()
	snBefore := v.Snapshot()
	ixBefore := e.Index()

	shallow, _, err := v.Search(ctx, "anchorword", 20, WithDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	deep, _, err := v.Search(ctx, "anchorword", 20, WithDepth(5), WithHITS(true))
	if err != nil {
		t.Fatal(err)
	}
	if v.Snapshot() != snBefore {
		t.Fatal("per-call options rebuilt the snapshot")
	}
	if e.Index() != ixBefore {
		t.Fatal("per-call options rebuilt the text index")
	}
	// The options must actually bite: depth-5 reaches d3, depth-1 cannot
	// even reach d2.
	has := func(hits []PageHit, substr string) bool {
		for _, h := range hits {
			if strings.Contains(h.URL, substr) {
				return true
			}
		}
		return false
	}
	if has(shallow, "d2.example") {
		t.Fatalf("depth-1 reached d2: %+v", shallow)
	}
	if !has(deep, "d3.example") {
		t.Fatalf("depth-5 missed d3: %+v", deep)
	}
}

func TestExpiredContextReturnsPromptly(t *testing.T) {
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired before the query launches

	v := e.View()
	start := time.Now()
	hits, meta, err := v.Search(ctx, "rosebud", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Canceled {
		t.Fatalf("meta = %+v, want Canceled", meta)
	}
	if len(hits) != 0 {
		t.Fatalf("canceled query returned full results: %+v", hits)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("canceled query blocked for %v", elapsed)
	}
	// The other query families honour the same contract.
	if _, meta, _ := v.TimeContextualSearch(ctx, "wine", "tickets", 5); !meta.Canceled {
		t.Fatal("TimeContextualSearch ignored expired context")
	}
	if _, meta, _ := v.Sessions(ctx); !meta.Canceled {
		t.Fatal("Sessions ignored expired context")
	}
}

func TestContextDeadlineBoundsBudget(t *testing.T) {
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})

	// A generous budget but an already-past context deadline: the
	// effective deadline is the context's, so the run reports truncation
	// or cancellation immediately rather than working 1h.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, meta, err := e.View().Search(ctx, "rosebud", 10, WithBudget(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Truncated && !meta.Canceled {
		t.Fatalf("meta = %+v, want Truncated or Canceled", meta)
	}
}

func TestViewAt(t *testing.T) {
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})
	ctx := context.Background()

	v1 := e.View()
	gen1 := v1.Generation()
	f.visit(t, "http://later.example/", "Later", "", event.TransTyped)
	v2 := e.View()
	if v2.Generation() == gen1 {
		t.Fatal("generation did not advance")
	}

	// The older epoch is retained: ViewAt returns a working handle.
	back := e.ViewAt(gen1)
	if err := back.Err(); err != nil {
		t.Fatalf("ViewAt(%d): %v", gen1, err)
	}
	if _, meta, err := back.TextualSearch(ctx, "rosebud", 5); err != nil || meta.Generation != gen1 {
		t.Fatalf("ViewAt query: meta=%+v err=%v", meta, err)
	}

	// A generation never materialised fails with the sentinel.
	missing := e.ViewAt(gen1 + 100000)
	if !errors.Is(missing.Err(), ErrNoSuchGeneration) {
		t.Fatalf("Err = %v, want ErrNoSuchGeneration", missing.Err())
	}
	if _, _, err := missing.Search(ctx, "rosebud", 5); !errors.Is(err, ErrNoSuchGeneration) {
		t.Fatalf("query err = %v, want ErrNoSuchGeneration", err)
	}
}

func TestDownloadLineageSentinels(t *testing.T) {
	f := newFixture(t)
	buildMalwareHistory(t, f)
	e := NewEngine(f.s, Options{})
	ctx := context.Background()
	v := e.View()

	if _, _, err := v.DownloadLineageByPath(ctx, "/no/such/file"); !errors.Is(err, ErrNoSuchDownload) {
		t.Fatalf("missing path err = %v, want ErrNoSuchDownload", err)
	}
	// A node that exists but is not a download is also no download.
	page, _ := f.s.Snapshot().PageByURL("http://forum.example/")
	if _, _, err := v.DownloadLineage(ctx, page.ID); !errors.Is(err, ErrNoSuchDownload) {
		t.Fatalf("non-download node err = %v, want ErrNoSuchDownload", err)
	}
	// The happy path still works by path.
	lin, meta, err := v.DownloadLineageByPath(ctx, "/home/u/codec.exe")
	if err != nil || !lin.Found {
		t.Fatalf("lineage by path: found=%v err=%v", lin.Found, err)
	}
	if meta.Generation != v.Generation() {
		t.Fatalf("meta.Generation = %d", meta.Generation)
	}
}

// TestPerCallRecognizableThreshold exercises WithRecognizableVisits
// resolving per call against one View (the old API needed a second
// engine per threshold).
func TestPerCallRecognizableThreshold(t *testing.T) {
	f := newFixture(t)
	buildMalwareHistory(t, f)
	e := NewEngine(f.s, Options{})
	ctx := context.Background()
	v := e.View()
	dl := f.s.Snapshot().Downloads()[0]

	// Default threshold (3): the forum (5 typed visits) is recognizable.
	lin, _, err := v.DownloadLineage(ctx, dl)
	if err != nil || !lin.Found {
		t.Fatalf("default threshold: found=%v err=%v", lin.Found, err)
	}
	// An impossible threshold on the same View: nothing qualifies.
	// (Typed visits still force recognizability, so raise the bar via a
	// RawGraph+threshold combination that the fixture's chain cannot
	// meet — the forum is typed, so instead verify the threshold knob
	// reaches the predicate through Run.Recognizable directly.)
	r, err := v.Begin(ctx, WithRecognizableVisits(100))
	if err != nil {
		t.Fatal(err)
	}
	page, _ := f.s.Snapshot().PageByURL("http://shady.example/landing")
	if r.Recognizable(page) {
		t.Fatal("2-visit page recognizable under threshold 100")
	}
	r2, err := v.Begin(ctx, WithRecognizableVisits(2))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Recognizable(page) {
		t.Fatal("2-visit page not recognizable under threshold 2")
	}
}

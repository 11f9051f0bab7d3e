package query

import (
	"context"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.budget() != DefaultBudget {
		t.Fatalf("budget = %v", o.budget())
	}
	if o.decay() != 0.5 || o.maxDepth() != 3 || o.maxNodes() != 5000 || o.recognizable() != 3 {
		t.Fatalf("defaults: decay=%v depth=%d nodes=%d recog=%d", o.decay(), o.maxDepth(), o.maxNodes(), o.recognizable())
	}
	// Negative budget = effectively unlimited.
	o.Budget = -1
	if o.budget() < 24*time.Hour {
		t.Fatalf("negative budget = %v", o.budget())
	}
}

// buildRedirectHistory creates A -link-> hop -302-> target.
func buildRedirectHistory(t *testing.T, f *fixture) {
	f.visit(t, "http://a.example/", "A start", "", event.TransTyped)
	f.visit(t, "http://hop.example/r", "", "http://a.example/", event.TransLink)
	f.visit(t, "http://target.example/", "Rosebud target", "http://hop.example/r", event.TransRedirectTemporary)
}

func TestRawGraphOptionSeesRedirectHops(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRedirectHistory(t, f)

	lens := NewEngine(f.s, Options{})
	raw := NewEngine(f.s, Options{RawGraph: true})

	// Through the lens, expansion from A reaches the target directly;
	// the hop page should not be scored as a result.
	lensHits, _, _ := lens.View().Search(ctx, "start", 10)
	for _, h := range lensHits {
		if strings.Contains(h.URL, "hop.example") {
			t.Fatal("lens surfaced the redirect hop")
		}
	}
	foundTarget := false
	for _, h := range lensHits {
		if strings.Contains(h.URL, "target.example") {
			foundTarget = true
		}
	}
	if !foundTarget {
		t.Fatalf("lens lost the redirect target: %+v", lensHits)
	}
	// The raw engine may legitimately surface the hop.
	rawHits, _, _ := raw.View().Search(ctx, "start", 10)
	if len(rawHits) == 0 {
		t.Fatal("raw graph returned nothing")
	}
}

func TestMaxDepthOption(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	// Chain: seed -> d1 -> d2 -> d3.
	f.visit(t, "http://seed.example/", "Anchorword", "", event.TransTyped)
	f.visit(t, "http://d1.example/", "One", "http://seed.example/", event.TransLink)
	f.visit(t, "http://d2.example/", "Two", "http://d1.example/", event.TransLink)
	f.visit(t, "http://d3.example/", "Three", "http://d2.example/", event.TransLink)

	shallow := NewEngine(f.s, Options{MaxDepth: 1})
	deep := NewEngine(f.s, Options{MaxDepth: 5})

	has := func(hits []PageHit, substr string) bool {
		for _, h := range hits {
			if strings.Contains(h.URL, substr) {
				return true
			}
		}
		return false
	}
	sh, _, _ := shallow.View().Search(ctx, "anchorword", 20)
	dh, _, _ := deep.View().Search(ctx, "anchorword", 20)
	if has(sh, "d2.example") {
		t.Fatalf("depth-1 expansion reached d2: %+v", sh)
	}
	if !has(dh, "d3.example") {
		t.Fatalf("depth-5 expansion missed d3: %+v", dh)
	}
}

func TestRecognizableThresholdOption(t *testing.T) {
	f := newFixture(t)
	// Page visited twice via links.
	f.visit(t, "http://start.example/", "Start", "", event.TransLink)
	f.visit(t, "http://twice.example/", "Twice", "http://start.example/", event.TransLink)
	f.visit(t, "http://start.example/", "Start", "http://twice.example/", event.TransLink)
	f.visit(t, "http://twice.example/", "Twice", "http://start.example/", event.TransLink)

	strict := NewEngine(f.s, Options{RecognizableVisits: 5})
	loose := NewEngine(f.s, Options{RecognizableVisits: 2})
	page, _ := f.s.Snapshot().PageByURL("http://twice.example/")
	if recognizable(t, strict, page) {
		t.Fatal("2 visits recognizable under threshold 5")
	}
	if !recognizable(t, loose, page) {
		t.Fatal("2 visits not recognizable under threshold 2")
	}
}

func TestVisitCountAcrossInstances(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 4; i++ {
		f.visit(t, "http://multi.example/", "Multi", "", event.TransTyped)
	}
	page, _ := f.s.Snapshot().PageByURL("http://multi.example/")
	if got := f.s.Snapshot().VisitCount(page.ID); got != 4 {
		t.Fatalf("VisitCount = %d", got)
	}
}

func TestMetaExpansionCount(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	buildRosebudHistory(t, f)
	e := NewEngine(f.s, Options{})
	_, meta, _ := e.View().Search(ctx, "rosebud", 10)
	if meta.Expanded <= 0 {
		t.Fatalf("Expanded = %d", meta.Expanded)
	}
}

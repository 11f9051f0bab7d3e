package query

import (
	"context"
	"fmt"
	"testing"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
)

// revisitPages and revisitVisits shape buildRevisitHistory: two "wine"
// pages, each visited revisitVisits times.
const (
	revisitPages  = 2
	revisitVisits = 30
	// revisitCap is a MaxNodes the full seed set (60 visits) saturates,
	// while the bounded one (12 visits per page) and the start visits
	// one hop away fit under it.
	revisitCap = 50
)

// buildRevisitHistory visits each "wine" page revisitVisits times, every
// visit linked from a start page of its own that no query matches.
func buildRevisitHistory(t *testing.T, f *fixture) {
	t.Helper()
	for i := 0; i < revisitPages*revisitVisits; i++ {
		start := fmt.Sprintf("http://start%d.example/", i)
		f.visit(t, start, fmt.Sprintf("Start page %d", i), "", event.TransTyped)
		f.visit(t, fmt.Sprintf("http://cellar%d.example/", i%revisitPages), "Wine cellar", start, event.TransLink)
	}
}

// TestSeedBoundOnlyWhenSaturated: stage 1 seeds every visit of each
// text-hit page while the full seed set stays below maxNodes. Once it
// would reach the cap, each page seeds at most max(1, maxNodes/2/pages)
// visits, and those are its newest.
func TestSeedBoundOnlyWhenSaturated(t *testing.T) {
	f := newFixture(t)
	buildRevisitHistory(t, f)
	v := NewEngine(f.s, Options{}).View()
	sn := v.Snapshot()
	const full = revisitPages * revisitVisits
	for _, tc := range []struct {
		maxNodes, quota int
	}{
		{0, revisitVisits}, // the default cap, 5000
		{full + 1, revisitVisits},
		{full, full / 2 / revisitPages},
		{revisitCap, revisitCap / 2 / revisitPages},
		{8, 2},
		{2, 1},
	} {
		r, err := v.Begin(context.Background(), WithMaxNodes(tc.maxNodes), WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		hits := r.searchIndex("wine", 200)
		if len(hits) != revisitPages {
			t.Fatalf("%d text hits, want the %d wine pages", len(hits), revisitPages)
		}
		r.seed(hits)
		seeded := &r.arena.Scores
		if seeded.Len() != revisitPages*tc.quota {
			t.Fatalf("maxNodes %d: %d seeds, want %d", tc.maxNodes, seeded.Len(), revisitPages*tc.quota)
		}
		for _, h := range hits {
			vs := sn.VisitsOfPage(provgraph.NodeID(h.Doc))
			for i, id := range vs {
				newest := i >= len(vs)-tc.quota
				if seeded.Has(id) != newest {
					t.Fatalf("maxNodes %d: visit %d of %d seeded=%v, want the newest %d seeded",
						tc.maxNodes, i+1, len(vs), seeded.Has(id), tc.quota)
				}
			}
		}
		r.Finish()
	}
}

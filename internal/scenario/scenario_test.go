package scenario

import (
	"context"
	"strings"
	"testing"
	"time"

	"browserprov/internal/browser"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
	"browserprov/internal/session"
	"browserprov/internal/webgen"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

// emptyStore returns a fresh provenance store.
func emptyStore(t *testing.T) *provgraph.Store {
	t.Helper()
	s, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// noisyStore returns a store preloaded with several days of synthetic
// background browsing, so scenarios are tested against realistic
// clutter, then injects run on top.
func noisyStore(t *testing.T) *provgraph.Store {
	t.Helper()
	s := emptyStore(t)
	w := webgen.Generate(webgen.Config{Seed: 5})
	b := browser.New(w, t0.Add(-20*24*time.Hour), s.Apply)
	p := session.Default(5)
	p.Days = 6
	if _, err := session.NewRunner(w, b, p).Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRosebudScenario(t *testing.T) {
	ctx := context.Background()
	for name, mk := range map[string]func(*testing.T) *provgraph.Store{
		"clean": emptyStore, "noisy": noisyStore,
	} {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			truth, err := InjectRosebud(t0, 9001, s.Apply)
			if err != nil {
				t.Fatal(err)
			}
			v := query.NewEngine(s, query.Options{}).View()

			// Baseline misses the film page.
			textual, _, _ := v.TextualSearch(ctx, truth.Query, 0)
			for _, h := range textual {
				if h.URL == truth.Expected {
					t.Fatal("textual baseline found the causal page; scenario broken")
				}
			}
			// Contextual search finds it near the top.
			hits, _, _ := v.Search(ctx, truth.Query, 10)
			rank := -1
			for i, h := range hits {
				if h.URL == truth.Expected {
					rank = i
					break
				}
			}
			if rank < 0 {
				t.Fatalf("contextual search missed %s", truth.Expected)
			}
			if rank > 4 {
				t.Fatalf("expected page ranked %d, want top-5", rank+1)
			}
		})
	}
}

func TestGardenerScenario(t *testing.T) {
	ctx := context.Background()
	s := noisyStore(t)
	truth, err := InjectGardener(t0, 9001, s.Apply)
	if err != nil {
		t.Fatal(err)
	}
	v := query.NewEngine(s, query.Options{}).View()
	suggestions, _, _ := v.Personalize(ctx, truth.Query, 8)
	ok := false
	for _, sg := range suggestions {
		for _, want := range truth.AssociatedTerms {
			if sg.Term == want {
				ok = true
			}
		}
	}
	if !ok {
		t.Fatalf("no associated term in suggestions: %+v", suggestions)
	}
}

func TestWineScenario(t *testing.T) {
	ctx := context.Background()
	s := noisyStore(t)
	truth, err := InjectWine(t0, 9001, s.Apply)
	if err != nil {
		t.Fatal(err)
	}
	v := query.NewEngine(s, query.Options{}).View()
	hits, _, _ := v.TimeContextualSearch(ctx, truth.Query, truth.Anchor, 5)
	if len(hits) == 0 {
		t.Fatal("no time-contextual hits")
	}
	if hits[0].URL != truth.Expected {
		t.Fatalf("top hit = %s, want %s", hits[0].URL, truth.Expected)
	}
	// Distractors must not outrank the true answer.
	for _, h := range hits[1:] {
		if h.Score > hits[0].Score {
			t.Fatalf("distractor %s outranks the answer", h.URL)
		}
	}
}

func TestMalwareScenario(t *testing.T) {
	ctx := context.Background()
	s := noisyStore(t)
	truth, err := InjectMalware(t0, 9001, s.Apply)
	if err != nil {
		t.Fatal(err)
	}
	v := query.NewEngine(s, query.Options{}).View()

	// Find the infected download node.
	var dl provgraph.NodeID
	for _, id := range s.Snapshot().Downloads() {
		n, _ := s.Snapshot().NodeByID(id)
		if n.Text == truth.SavePath {
			dl = id
		}
	}
	if dl == 0 {
		t.Fatal("infected download not in store")
	}

	lin, _, _ := v.DownloadLineage(ctx, dl)
	if !lin.Found {
		t.Fatal("lineage found no recognizable ancestor")
	}
	last := lin.Path[len(lin.Path)-1]
	if !strings.HasPrefix(last.URL, truth.RecognizableAncestor) {
		t.Fatalf("lineage stops at %s, want %s", last.URL, truth.RecognizableAncestor)
	}

	// Descendant scan from the untrusted page finds every payload.
	dls, _, _ := v.DescendantDownloads(ctx, truth.UntrustedPage)
	got := map[string]bool{}
	for _, d := range dls {
		got[d.Text] = true
	}
	for _, want := range truth.AllDownloads {
		if !got[want] {
			t.Fatalf("descendant scan missed %s (got %v)", want, got)
		}
	}
}

func TestScenariosPreserveDAG(t *testing.T) {
	s := noisyStore(t)
	if _, err := InjectRosebud(t0, 9001, s.Apply); err != nil {
		t.Fatal(err)
	}
	if _, err := InjectGardener(t0.Add(24*time.Hour), 9101, s.Apply); err != nil {
		t.Fatal(err)
	}
	if _, err := InjectWine(t0.Add(48*time.Hour), 9201, s.Apply); err != nil {
		t.Fatal(err)
	}
	if _, err := InjectMalware(t0.Add(96*time.Hour), 9301, s.Apply); err != nil {
		t.Fatal(err)
	}
	if cycle := s.VerifyDAG(); cycle != nil {
		t.Fatalf("scenarios created a cycle: %v", cycle)
	}
}

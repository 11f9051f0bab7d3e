package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/graph"
	"browserprov/internal/provgraph"
	"browserprov/internal/textindex"
)

// This file pins the dense-arena query pipeline to the map-based
// reference: the pre-arena implementations of contextual search and
// personalisation are kept here verbatim (running on the map-based
// refExpand / refHITS below) and randomized workloads assert that the
// arena pipeline returns identical hit sets, scores and order.

// refExpand is the map-based undirected neighborhood expansion that
// graph.ExpandArena replaced.
func refExpand(g graph.Graph, seeds map[graph.NodeID]float64, decay float64, maxDepth, maxNodes int, stop func() bool) map[graph.NodeID]float64 {
	scores := make(map[graph.NodeID]float64, len(seeds))
	frontier := make(map[graph.NodeID]float64, len(seeds))
	for n, w := range seeds {
		scores[n], frontier[n] = w, w
	}
	for depth := 1; depth <= maxDepth && len(frontier) > 0 && !stop(); depth++ {
		next := make(map[graph.NodeID]float64)
		for n, w := range frontier {
			if w*decay == 0 {
				continue
			}
			for _, m := range append(append([]graph.NodeID(nil), g.Out(n)...), g.In(n)...) {
				if _, known := scores[m]; !known && len(scores)+len(next) >= maxNodes {
					continue
				}
				next[m] += w * decay
			}
		}
		for m, w := range next {
			scores[m] += w
		}
		frontier = next
	}
	return scores
}

// refHITS is the map-based HITS that graph.HITSArena replaced.
func refHITS(g graph.Graph, nodes []graph.NodeID, iters int, tol float64) (hubs, auths map[graph.NodeID]float64) {
	inSet := make(map[graph.NodeID]bool, len(nodes))
	hubs = make(map[graph.NodeID]float64, len(nodes))
	auths = make(map[graph.NodeID]float64, len(nodes))
	prev := make(map[graph.NodeID]float64, len(nodes))
	for _, n := range nodes {
		inSet[n], hubs[n], auths[n] = true, 1, 1
	}
	// update sets dst(n) to the sum of src over n's in-set neighbors,
	// L2-normalised.
	update := func(dst, src map[graph.NodeID]float64, nbrs func(graph.NodeID) []graph.NodeID) {
		norm := 0.0
		for _, n := range nodes {
			sum := 0.0
			for _, m := range nbrs(n) {
				if inSet[m] {
					sum += src[m]
				}
			}
			dst[n] = sum
			norm += sum * sum
		}
		if norm = math.Sqrt(norm); norm > 0 {
			for n := range dst {
				dst[n] /= norm
			}
		}
	}
	for it := 0; it < iters; it++ {
		update(auths, hubs, g.In)
		update(hubs, auths, g.Out)
		delta := 0.0
		for n, h := range hubs {
			delta += (h - prev[n]) * (h - prev[n])
			prev[n] = h
		}
		if it > 0 && math.Sqrt(delta) < tol {
			break
		}
	}
	return hubs, auths
}

// referenceContextualSearch is the §2.1 pipeline as it ran before the
// dense-arena rewrite, with the saturation bound on page seeds restated
// over its maps: when the full seed set would reach maxNodes, each page
// seeds only its max(1, maxNodes/2/pages) most recent visits.
func referenceContextualSearch(r *Run, q string, k int) []PageHit {
	if r.Stop() {
		return nil
	}
	sn := r.Snapshot()
	textHits := r.searchIndex(q, 200)
	full, pages := 0, 0
	for _, h := range textHits {
		n, ok := sn.NodeByID(provgraph.NodeID(h.Doc))
		if !ok {
			continue
		}
		if n.Kind != provgraph.KindPage {
			full++
			continue
		}
		pages++
		full += len(sn.VisitsOfPage(n.ID))
		if sn.Mode() == provgraph.VersionEdges {
			full++
		}
	}
	quota := math.MaxInt
	if full >= r.opts.maxNodes() && pages > 0 {
		quota = max(1, r.opts.maxNodes()/2/pages)
	}
	seeds := make(map[graph.NodeID]float64, len(textHits)*2)
	textScore := make(map[provgraph.NodeID]float64, len(textHits))
	for _, h := range textHits {
		id := provgraph.NodeID(h.Doc)
		n, ok := sn.NodeByID(id)
		if !ok {
			continue
		}
		switch n.Kind {
		case provgraph.KindPage:
			textScore[id] = h.Score
			vs := sn.VisitsOfPage(id)
			for _, v := range vs[max(0, len(vs)-quota):] {
				seeds[v] = h.Score
			}
			if sn.Mode() == provgraph.VersionEdges {
				seeds[id] = h.Score
			}
		default:
			seeds[id] = h.Score
		}
	}
	g := r.graphView()
	scores := refExpand(g, seeds, r.opts.decay(), r.opts.maxDepth(), r.opts.maxNodes(), r.Stop)
	var auth map[graph.NodeID]float64
	if r.opts.UseHITS && !r.Stop() {
		sub := make([]graph.NodeID, 0, len(scores))
		for n := range scores {
			sub = append(sub, n)
		}
		sort.Slice(sub, func(i, j int) bool { return sub[i] < sub[j] })
		_, auth = refHITS(g, sub, 20, 1e-6)
	}
	pageProv := make(map[provgraph.NodeID]float64, len(scores))
	for id, w := range scores {
		n, ok := sn.NodeByID(id)
		if !ok {
			continue
		}
		var page provgraph.NodeID
		switch n.Kind {
		case provgraph.KindVisit:
			page = n.Page
		case provgraph.KindPage:
			page = n.ID
		default:
			continue
		}
		contrib := w
		if auth != nil {
			contrib += wHITS * auth[id] * w
		}
		if contrib > pageProv[page] {
			pageProv[page] = contrib
		}
	}
	hits := make([]PageHit, 0, len(pageProv))
	for page, prov := range pageProv {
		n, ok := sn.NodeByID(page)
		if !ok {
			continue
		}
		ts := textScore[page]
		hits = append(hits, PageHit{
			Page: page, URL: n.URL, Title: n.Title,
			TextScore: ts, ProvScore: prov,
			Score: wText*ts + wProv*prov,
		})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Page < hits[j].Page
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// referencePersonalize is §2.2 exactly as it ran before the rewrite
// (map-copying TermsOf, reference contextual stage).
func referencePersonalize(r *Run, q string, nTerms int) []TermSuggestion {
	sn := r.Snapshot()
	index := r.v.e.index
	hits := referenceContextualSearch(r, q, 50)
	queryTerms := make(map[string]bool)
	for _, t := range textindex.Tokenize(q) {
		queryTerms[t] = true
	}
	weights := make(map[string]float64)
	for _, h := range hits {
		if h.Score <= 0 {
			continue
		}
		for term, tf := range index.TermsOf(textindex.DocID(h.Page)) {
			if queryTerms[term] {
				continue
			}
			weights[term] += float64(tf) * h.Score
		}
	}
	for _, h := range hits {
		for _, v := range sn.VisitsOfPage(h.Page) {
			for _, edge := range sn.InEdges(v) {
				if edge.Kind != provgraph.EdgeSearchResults {
					continue
				}
				if tn, ok := sn.NodeByID(edge.From); ok {
					for _, t := range textindex.Tokenize(tn.Text) {
						if !queryTerms[t] && !textindex.IsStopword(t) {
							weights[t] += h.Score
						}
					}
				}
			}
		}
	}
	total := index.NumDocsUnder(r.maxDoc())
	out := make([]TermSuggestion, 0, len(weights))
	for term, w := range weights {
		df := index.DocFreqUnder(term, r.maxDoc())
		idf := 1.0
		if df > 0 && total > 0 {
			idf = math.Log(1 + float64(total)/float64(df))
		}
		out = append(out, TermSuggestion{Term: term, Weight: w * idf})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Term < out[j].Term
	})
	if nTerms > 0 && len(out) > nTerms {
		out = out[:nTerms]
	}
	return out
}

// vocab is the randomized workload's title vocabulary; queries draw
// from it so text matches are plentiful.
var vocab = []string{
	"wine", "bordeaux", "cellar", "ticket", "flight", "paris",
	"garden", "rosebud", "flower", "news", "story", "recipe",
	"cheese", "market", "museum", "train", "hotel", "review",
}

// buildRandomHistory drives a randomized but deterministic workload:
// typed visits, link chains, searches with click-throughs, downloads.
func buildRandomHistory(t *testing.T, f *fixture, seed int64, events int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var urls []string
	title := func() string {
		a := vocab[rng.Intn(len(vocab))]
		b := vocab[rng.Intn(len(vocab))]
		return fmt.Sprintf("%s %s digest %d", a, b, rng.Intn(50))
	}
	for i := 0; i < events; i++ {
		switch r := rng.Float64(); {
		case r < 0.15 || len(urls) == 0:
			u := fmt.Sprintf("http://h%d.example/%s-%d", rng.Intn(12), vocab[rng.Intn(len(vocab))], i)
			f.visit(t, u, title(), "", event.TransTyped)
			urls = append(urls, u)
		case r < 0.25:
			from := urls[rng.Intn(len(urls))]
			results := f.search(t, from, vocab[rng.Intn(len(vocab))]+" "+vocab[rng.Intn(len(vocab))])
			u := fmt.Sprintf("http://h%d.example/%s-%d", rng.Intn(12), vocab[rng.Intn(len(vocab))], i)
			f.visit(t, u, title(), results, event.TransSearchResult)
			urls = append(urls, u)
		case r < 0.30:
			from := urls[rng.Intn(len(urls))]
			f.download(t, from+"/file.bin", from, fmt.Sprintf("/tmp/dl-%d-%d.bin", seed, i))
		case r < 0.45:
			// Revisit an existing page (builds up visit counts).
			f.visit(t, urls[rng.Intn(len(urls))], "", urls[rng.Intn(len(urls))], event.TransLink)
		default:
			from := urls[rng.Intn(len(urls))]
			u := fmt.Sprintf("http://h%d.example/%s-%d", rng.Intn(12), vocab[rng.Intn(len(vocab))], i)
			f.visit(t, u, title(), from, event.TransLink)
			urls = append(urls, u)
		}
	}
}

// comparePageHits asserts got and want hold the same hit set with the
// same per-page scores (within fp accumulation-order noise, which the
// map reference re-rolls every run), and that got is correctly ordered
// by its own scores. Rank-by-rank page equality would be flaky: two
// pages whose scores are mathematically tied can swap order depending
// on which side of the page-ID tiebreak a 1-ulp accumulation
// difference lands them.
func comparePageHits(t *testing.T, label string, got, want []PageHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, reference %d", label, len(got), len(want))
	}
	ref := make(map[provgraph.NodeID]PageHit, len(want))
	for _, h := range want {
		ref[h.Page] = h
	}
	for _, h := range got {
		w, ok := ref[h.Page]
		if !ok {
			t.Fatalf("%s: page %d not in reference results", label, h.Page)
		}
		if d := math.Abs(h.Score - w.Score); d > 1e-12 {
			t.Fatalf("%s: page %d score %g, reference %g (delta %g)", label, h.Page, h.Score, w.Score, d)
		}
		if d := math.Abs(h.ProvScore - w.ProvScore); d > 1e-12 {
			t.Fatalf("%s: page %d prov %g, reference %g", label, h.Page, h.ProvScore, w.ProvScore)
		}
		if h.TextScore != w.TextScore {
			t.Fatalf("%s: page %d text %g, reference %g", label, h.Page, h.TextScore, w.TextScore)
		}
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Page > b.Page) {
			t.Fatalf("%s: ranks %d-%d out of order: %+v before %+v", label, i-1, i, a, b)
		}
	}
}

// TestDenseSearchMatchesReference: the arena pipeline must rank
// identically to the map reference — same hits, same order, scores
// within fp accumulation noise — across randomized workloads, with and
// without HITS, at the default cap and at one every query's seeds
// saturate.
func TestDenseSearchMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := newFixture(t)
		buildRandomHistory(t, f, seed, 400)
		e := NewEngine(f.s, Options{})
		v := e.View()
		ctx := context.Background()
		for _, q := range []string{"wine", "garden flower", "ticket paris", "cheese"} {
			for _, tc := range []struct {
				hits     bool
				maxNodes int
			}{{false, 0}, {true, 0}, {false, saturatedCap}, {true, saturatedCap}} {
				// k=0 compares the complete rankings; a k cut could split
				// an fp-tied group differently between the two pipelines.
				opts := []Option{WithHITS(tc.hits), WithBudget(-1), WithMaxNodes(tc.maxNodes)}
				if tc.maxNodes > 0 && boundedSeeds(t, v, q, tc.maxNodes) < tc.maxNodes {
					t.Fatalf("q=%q: bounded seeds leave room under maxNodes %d", q, tc.maxNodes)
				}
				got, _, err := v.Search(ctx, q, 0, opts...)
				if err != nil {
					t.Fatal(err)
				}
				r, err := v.Begin(ctx, opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceContextualSearch(r, q, 0)
				r.Finish()
				comparePageHits(t, fmt.Sprintf("seed %d q=%q hits=%v maxNodes=%d", seed, q, tc.hits, tc.maxNodes), got, want)

				// The k cut must be exactly the prefix of the full ranking
				// (dense vs dense: bounded-heap selection vs full sort).
				cut, _, err := v.Search(ctx, q, 15, opts...)
				if err != nil {
					t.Fatal(err)
				}
				wantCut := got
				if len(wantCut) > 15 {
					wantCut = wantCut[:15]
				}
				if len(cut) != len(wantCut) {
					t.Fatalf("seed %d q=%q: k-cut %d hits, want %d", seed, q, len(cut), len(wantCut))
				}
				for i := range wantCut {
					if cut[i] != wantCut[i] {
						t.Fatalf("seed %d q=%q: k-cut rank %d = %+v, want %+v", seed, q, i, cut[i], wantCut[i])
					}
				}
			}
		}
	}
}

// saturatedCap is a MaxNodes every randomized-history query's seed set
// saturates even after the bound, so the expansion admits no node and
// the map reference's iteration order cannot change which nodes it
// scores.
const saturatedCap = 16

// boundedSeeds fails t unless q's full seed set reaches maxNodes, so the
// search takes the bounded seeding path, and returns how many seeds that
// path loads.
func boundedSeeds(t *testing.T, v *View, q string, maxNodes int) int {
	t.Helper()
	r, err := v.Begin(context.Background(), WithBudget(-1), WithMaxNodes(maxNodes))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Finish()
	hits := r.searchIndex(q, 200)
	if seedQuota(r.Snapshot(), hits, maxNodes) == 0 {
		t.Fatalf("q=%q: seeds do not saturate maxNodes %d", q, maxNodes)
	}
	r.seed(hits)
	return r.arena.Scores.Len()
}

// TestDenseSearchMatchesReferenceBoundedSeeds: where the bound keeps
// several visits per page and the bounded expansion fits under the cap,
// the arena pipeline and the map reference still agree.
func TestDenseSearchMatchesReferenceBoundedSeeds(t *testing.T) {
	f := newFixture(t)
	buildRevisitHistory(t, f)
	v := NewEngine(f.s, Options{}).View()
	ctx := context.Background()
	const maxNodes = revisitCap
	boundedSeeds(t, v, "wine", maxNodes)
	for _, hits := range []bool{false, true} {
		opts := []Option{WithHITS(hits), WithBudget(-1), WithMaxNodes(maxNodes), WithDepth(1)}
		got, meta, err := v.Search(ctx, "wine", 0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// The kernel refuses a node once scored plus frontier nodes reach
		// the cap, and the frontier may repeat scored nodes, so a deeper
		// expansion can refuse nodes and still end below the cap. In one
		// round it cannot: ending below the cap proves no node was
		// refused, so the map reference's iteration order cannot pick
		// different nodes.
		if meta.Expanded >= maxNodes {
			t.Fatalf("hits=%v: expanded %d, want below the cap %d", hits, meta.Expanded, maxNodes)
		}
		r, err := v.Begin(ctx, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceContextualSearch(r, "wine", 0)
		r.Finish()
		comparePageHits(t, fmt.Sprintf("bounded hits=%v", hits), got, want)
	}
}

// TestDensePersonalizeMatchesReference: same suggestions, same order,
// weights within tolerance.
func TestDensePersonalizeMatchesReference(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 7, 400)
	e := NewEngine(f.s, Options{})
	v := e.View()
	ctx := context.Background()
	for _, q := range []string{"wine", "garden", "museum train"} {
		// nTerms=0 compares complete rankings; tie-robust like
		// comparePageHits, since suggestion weights inherit the fp
		// accumulation noise of the contextual stage.
		got, _, err := v.Personalize(ctx, q, 0, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := v.Begin(ctx, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		want := referencePersonalize(r, q, 0)
		r.Finish()
		if len(got) != len(want) {
			t.Fatalf("q=%q: %d suggestions, reference %d", q, len(got), len(want))
		}
		ref := make(map[string]float64, len(want))
		for _, s := range want {
			ref[s.Term] = s.Weight
		}
		for _, s := range got {
			w, ok := ref[s.Term]
			if !ok {
				t.Fatalf("q=%q: term %q not in reference", q, s.Term)
			}
			if d := math.Abs(s.Weight - w); d > 1e-12 {
				t.Fatalf("q=%q: term %q weight %g, reference %g", q, s.Term, s.Weight, w)
			}
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Weight < b.Weight || (a.Weight == b.Weight && a.Term > b.Term) {
				t.Fatalf("q=%q: ranks %d-%d out of order", q, i-1, i)
			}
		}
	}
}

// TestDenseTimeContextTopKMatchesFullSort: the bounded-heap cut must be
// exactly the prefix of the full ranking.
func TestDenseTimeContextTopKMatchesFullSort(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 13, 400)
	e := NewEngine(f.s, Options{})
	v := e.View()
	ctx := context.Background()
	full, _, err := v.TimeContextualSearch(ctx, "wine", "ticket", 0, WithBudget(-1))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 10} {
		cut, _, err := v.TimeContextualSearch(ctx, "wine", "ticket", k, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		want := full
		if k < len(full) {
			want = full[:k]
		}
		if len(cut) != len(want) {
			t.Fatalf("k=%d: %d hits, want %d", k, len(cut), len(want))
		}
		for i := range want {
			if cut[i] != want[i] {
				t.Fatalf("k=%d: rank %d = %+v, want %+v", k, i, cut[i], want[i])
			}
		}
	}
}

// TestDenseSearchDeterministicAcrossRuns: repeated queries on one View
// must agree exactly (the arena, unlike the maps it replaced, has no
// iteration-order randomness — even where the expansion node cap bites).
func TestDenseSearchDeterministicAcrossRuns(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 21, 500)
	e := NewEngine(f.s, Options{})
	v := e.View()
	ctx := context.Background()
	// MaxNodes 60 forces the admission cutoff to bite mid-expansion.
	first, _, err := v.Search(ctx, "wine cellar", 0, WithMaxNodes(60), WithBudget(-1))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		again, _, err := v.Search(ctx, "wine cellar", 0, WithMaxNodes(60), WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("trial %d: %d hits vs %d", trial, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("trial %d: rank %d = %+v, want %+v", trial, i, again[i], first[i])
			}
		}
	}
}

// TestAncestorTermsCrossGenerationID: a node ID minted after a View
// was pinned (so above its snapshot's MaxNodeID) must yield an empty
// result, not an out-of-range panic in the dense traversal slabs.
func TestAncestorTermsCrossGenerationID(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 41, 50)
	e := NewEngine(f.s, Options{})
	old := e.View()
	// Grow the store past the pinned snapshot.
	for i := 0; i < 20; i++ {
		f.visit(t, fmt.Sprintf("http://late.example/p%d", i), "late page", "", event.TransTyped)
	}
	newID := e.View().Snapshot().MaxNodeID()
	if newID <= old.Snapshot().MaxNodeID() {
		t.Fatal("store did not grow")
	}
	terms, _, err := old.AncestorTerms(context.Background(), newID)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 0 {
		t.Fatalf("terms for a node the snapshot cannot see: %v", terms)
	}
	if _, _, err := old.DownloadLineage(context.Background(), newID); err == nil {
		t.Fatal("lineage of an unseen node should fail with ErrNoSuchDownload")
	}
}

// TestArenaPoolRace hammers the arena pool from GOMAXPROCS goroutines
// while a writer keeps bumping generations (and the arena capacity
// class, as MaxNodeID crosses power-of-two boundaries). Run under
// -race this is the pool-safety proof; in any mode it checks that
// every query's results stay pinned to its View's generation.
func TestArenaPoolRace(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 31, 300)
	e := NewEngine(f.s, Options{})
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(99))
		// Throttled: an unthrottled writer starves the readers with
		// snapshot-rebuild churn on small CI machines; one event per
		// millisecond is already far beyond real browsing.
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			u := fmt.Sprintf("http://w.example/bg-%d", i)
			f.s.Apply(&event.Event{
				Time: t0.Add(time.Duration(100000+i) * time.Second),
				Type: event.TypeVisit, Tab: 9, URL: u,
				Title:      vocab[rng.Intn(len(vocab))] + " background",
				Transition: event.TransLink,
			})
		}
	}()
	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 30; i++ {
				v := e.View()
				gen := v.Generation()
				q := vocab[(w+i)%len(vocab)]
				_, meta, err := v.Search(ctx, q, 10, WithHITS(i%2 == 0))
				if err != nil {
					errs <- err
					return
				}
				if meta.Generation != gen {
					errs <- fmt.Errorf("worker %d: query ran at gen %d, View pinned %d", w, meta.Generation, gen)
					return
				}
				if _, _, err := v.Personalize(ctx, q, 5); err != nil {
					errs <- err
					return
				}
				if _, _, err := v.Sessions(ctx); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

package query

import (
	"context"
	"sort"

	"browserprov/internal/graph"
	"browserprov/internal/provgraph"
	"browserprov/internal/textindex"
	"browserprov/internal/topk"
)

// PageHit is one contextual history search result.
type PageHit struct {
	// Page is the page identity node.
	Page  provgraph.NodeID
	URL   string
	Title string
	// TextScore is the TF-IDF score of the page itself (0 if the page
	// did not match the query textually).
	TextScore float64
	// ProvScore is the provenance-neighborhood score: weight received
	// from query-matching seeds through graph expansion.
	ProvScore float64
	// Score is the blended ranking score.
	Score float64
}

// contextualWeights blends text and provenance scores. Provenance weight
// dominates for first-generation descendants (the paper: Citizen Kane
// "would receive substantial weight").
const (
	wText = 1.0
	wProv = 1.0
	wHITS = 0.5
)

// Search implements §2.1: a textual search whose results are re-ranked —
// and extended — by the relevance of their provenance neighbors. Pages
// that never matched the query textually but descend from matching
// nodes (e.g. a page reached from a search-term node) are admitted into
// the result set.
func (v *View) Search(ctx context.Context, q string, k int, opts ...Option) ([]PageHit, Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return nil, Meta{}, err
	}
	hits := r.contextualSearch(q, k)
	return hits, r.Finish(), nil
}

// contextualSearch is the §2.1 core, shared with Personalize so its
// multi-stage evaluation keeps a single Run (one snapshot, one budget).
//
// The seeds count toward the expansion's maxNodes cap, and a seed set
// that fills the cap leaves the expansion no room to admit a single
// provenance neighbour: the search would only move weight between its
// own text hits, which is not the reordering §2.1 is about. On a long
// history one text-hit page can have thousands of visits, so stage 1
// seeds every visit only while the full seed set stays below maxNodes.
// Otherwise each text-hit page seeds just its max(1, maxNodes/2/pages)
// most recent visits, pages being the number of page hits; term,
// download and form hits (and edge-mode page identities) seed as
// before. See seedQuota.
//
// Every per-query working set — seeds, expansion scores, text scores,
// the page fold — lives in the Run's dense scratch arena instead of
// hash maps: node IDs are dense integers, so each "map" is a flat slab
// indexed by ID with a generation stamp, recycled across queries
// through the arena pool. dense_equiv_test.go keeps the map-based
// pipeline this replaced and checks the two agree.
func (r *Run) contextualSearch(q string, k int) []PageHit {
	if r.Stop() {
		return nil
	}
	sn := r.Snapshot()
	a := r.arena
	nCap := a.NodeCap()

	// Stage 1: textual search over all indexed nodes (pages, terms,
	// downloads, forms), bounded to the pinned epoch's corpus. Matches
	// seed the expansion; page text scores park in a slab for stage 3.
	r.seed(r.searchIndex(q, 200))
	textScore := &a.PageA

	// Stage 2: neighborhood expansion through the personalisation lens.
	g := r.graphView()
	graph.ExpandArena(g, a, graph.Undirected, r.opts.decay(), r.opts.maxDepth(), r.opts.maxNodes(), r.Stop)
	scores := &a.Scores
	r.expanded = scores.Len()

	// Optional stage 2b: HITS over the expanded subgraph, blended in.
	// sub[i] -> i index compaction replaces the three maps of the
	// reference HITS; a.Idx keeps the node -> slot mapping for stage 3.
	var auths []float64
	if r.opts.UseHITS && !r.Stop() {
		a.SubBuf = append(a.SubBuf[:0], scores.Keys()...)
		sub := a.SubBuf
		sort.Slice(sub, func(i, j int) bool { return sub[i] < sub[j] })
		_, auths = graph.HITSArena(g, a, sub, 20, 1e-6)
	}

	// Stage 3: fold instance scores back onto page identities. The fold
	// reads only each node's kind and page link (flat column reads); the
	// strings are decoded below for the ranked survivors alone.
	pageProv := &a.PageB
	pageProv.Reset(nCap)
	for _, id := range scores.Keys() {
		kind, page, ok := sn.KindPage(id)
		if !ok {
			continue
		}
		switch kind {
		case provgraph.KindVisit:
			// page is the visit's page link.
		case provgraph.KindPage:
			page = id
		default:
			continue // object nodes don't surface as history results
		}
		contrib := scores.Get(id)
		if auths != nil {
			if j, ok := a.Idx.Lookup(id); ok {
				contrib += wHITS * auths[j] * scores.Get(id)
			}
		}
		// Max over instances: one strongly-related visit suffices to
		// make the page relevant; summing would conflate popularity
		// with relevance.
		pageProv.Max(page, contrib)
	}

	hits := make([]PageHit, 0, pageProv.Len())
	for _, page := range pageProv.Keys() {
		if _, _, ok := sn.KindPage(page); !ok {
			continue
		}
		ts := textScore.Get(page)
		prov := pageProv.Get(page)
		hits = append(hits, PageHit{
			Page: page, TextScore: ts, ProvScore: prov,
			Score: wText*ts + wProv*prov,
		})
	}
	// Ranking reads only Score and Page, so URL and Title can wait until
	// the cut.
	hits = topHits(hits, k)
	for i := range hits {
		n, _ := sn.NodeByID(hits[i].Page)
		hits[i].URL, hits[i].Title = n.URL, n.Title
	}
	return hits
}

// seed loads stage 1 of contextual search into the run's arena: the
// expansion's seeds, and each page hit's text score in a.PageA.
func (r *Run) seed(textHits []textindex.Result) {
	sn := r.Snapshot()
	a := r.arena
	nCap := a.NodeCap()
	a.ResetExpand(nCap)
	a.PageA.Reset(nCap)
	quota := seedQuota(sn, textHits, r.opts.maxNodes())
	for _, h := range textHits {
		id := provgraph.NodeID(h.Doc)
		kind, _, ok := sn.KindPage(id)
		if !ok {
			continue
		}
		switch kind {
		case provgraph.KindPage:
			a.PageA.Set(id, h.Score)
			// Seed the page's visit instances: provenance lives on the
			// instance level (§3.1). Visits are in creation order, so
			// the quota keeps the most recent ones.
			vs := sn.VisitsOfPage(id)
			if quota > 0 && len(vs) > quota {
				vs = vs[len(vs)-quota:]
			}
			for _, v := range vs {
				a.SeedExpand(v, h.Score)
			}
			if sn.Mode() == provgraph.VersionEdges {
				a.SeedExpand(id, h.Score)
			}
		default:
			// Term/download/form nodes participate directly.
			a.SeedExpand(id, h.Score)
		}
	}
}

// seedQuota returns how many of its most recent visits each text-hit
// page seeds: 0 (all of them) while the full seed set stays below
// maxNodes, else max(1, maxNodes/2/pages) for pages page hits, so
// that page seeds take at most about half the cap.
func seedQuota(sn *provgraph.Snapshot, textHits []textindex.Result, maxNodes int) int {
	seeds, pages := 0, 0
	for _, h := range textHits {
		id := provgraph.NodeID(h.Doc)
		kind, _, ok := sn.KindPage(id)
		switch {
		case !ok:
		case kind == provgraph.KindPage:
			pages++
			seeds += len(sn.VisitsOfPage(id))
			if sn.Mode() == provgraph.VersionEdges {
				seeds++
			}
		default:
			seeds++
		}
	}
	if seeds < maxNodes || pages == 0 {
		return 0
	}
	return max(1, maxNodes/2/pages)
}

// topHits ranks hits by descending score (page ID as the stable
// tiebreak) and cuts to k: a bounded-heap selection when k > 0, a full
// sort when k <= 0.
func topHits(hits []PageHit, k int) []PageHit {
	return topk.Select(hits, k, func(a, b PageHit) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Page < b.Page
	})
}

// TextualSearch is the baseline a provenance-unaware browser offers:
// pure TF-IDF over page titles and URLs. It is exposed so experiments
// can compare (E4), and reports latency and generation in Meta like
// every other query.
func (v *View) TextualSearch(ctx context.Context, q string, k int, opts ...Option) ([]PageHit, Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return nil, Meta{}, err
	}
	if r.Stop() {
		return nil, r.Finish(), nil
	}
	sn := r.Snapshot()
	var hits []PageHit
	for _, h := range r.searchIndex(q, 0) {
		id := provgraph.NodeID(h.Doc)
		n, ok := sn.NodeByID(id)
		if !ok || n.Kind != provgraph.KindPage {
			continue
		}
		hits = append(hits, PageHit{
			Page: id, URL: n.URL, Title: n.Title,
			TextScore: h.Score, Score: h.Score,
		})
	}
	return topHits(hits, k), r.Finish(), nil
}

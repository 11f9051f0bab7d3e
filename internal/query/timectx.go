package query

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/topk"
)

// TimeHit is one time-contextual search result: a page matching the
// query whose visits were on display together with visits of pages
// matching the anchor.
type TimeHit struct {
	Page  provgraph.NodeID
	URL   string
	Title string
	// Overlap is the accumulated co-display evidence in seconds
	// (interval overlap against the anchor timeline, which is padded by
	// sessionSlack so near-misses within the same sitting still count).
	Overlap float64
	// TextScore is the page's textual match against the primary query.
	TextScore float64
	// Score blends both.
	Score float64
}

// sessionSlack pads anchor display intervals: visits that do not
// strictly overlap but fall within this window of each other are still
// associated — "pages viewed within a similar time span" (§2.3).
// Blanc-Brude & Scapin: users recall events associated with documents,
// not exact timestamps.
const sessionSlack = 30 * time.Minute

// assumedDwell bounds the display interval of a visit whose close was
// never observed. Treating it as open forever would associate it with
// all later history (§3.2's "every page is always open" failure mode).
const assumedDwell = 30 * time.Minute

// maxDwell caps any visit's display interval for association purposes.
// A tab left open in the background for days is technically co-displayed
// with everything that follows, but the user's *sitting* — the thing
// they remember (§2.3) — is bounded; without the cap, one stale tab
// associates with all later history.
const maxDwell = 4 * time.Hour

// span is a half-open display interval.
type span struct{ start, end int64 } // unix micros

// TimeContextualSearch implements §2.3: "wine associated with plane
// tickets". Pages matching q are ranked by how much their visits
// overlapped in time with visits of pages matching anchor.
//
// The anchor visits' padded intervals are merged into a sorted timeline,
// so each query visit costs one binary search — the whole query is
// O((|q visits| + |anchor visits|) log |anchor visits|), comfortably
// inside the 200 ms budget at the paper's 25k-node scale.
func (v *View) TimeContextualSearch(ctx context.Context, q, anchor string, k int, opts ...Option) ([]TimeHit, Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return nil, Meta{}, err
	}
	if r.Stop() {
		return nil, r.Finish(), nil
	}
	sn := r.Snapshot()

	qPages := r.matchPages(q, 200)
	aPages := r.matchPages(anchor, 200)

	timeline := anchorTimeline(sn, aPages)

	var hits []TimeHit
	for _, qp := range qPages {
		if r.Stop() {
			break
		}
		overlap := 0.0
		for _, vid := range sn.VisitsOfPage(qp.page) {
			open, close, ok := sn.OpenClose(vid)
			if !ok {
				continue
			}
			overlap += timelineOverlap(timeline, visitSpan(open, close, 0))
		}
		if overlap <= 0 {
			continue
		}
		n, _ := sn.NodeByID(qp.page)
		hits = append(hits, TimeHit{
			Page: qp.page, URL: n.URL, Title: n.Title,
			Overlap: overlap, TextScore: qp.score,
			Score: qp.score * (1 + overlap),
		})
	}
	hits = topk.Select(hits, k, func(a, b TimeHit) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Page < b.Page
	})
	return hits, r.Finish(), nil
}

// visitSpan returns the display interval of a visit opened and closed at
// the given times, padded by pad on both sides, with assumedDwell
// substituted for a missing close.
func visitSpan(open, close time.Time, pad time.Duration) span {
	if close.IsZero() || close.Before(open) {
		close = open.Add(assumedDwell)
	}
	if close.Sub(open) > maxDwell {
		close = open.Add(maxDwell)
	}
	return span{
		start: open.Add(-pad).UnixMicro(),
		end:   close.Add(pad).UnixMicro(),
	}
}

// anchorTimeline collects all anchor visits' intervals, padded by
// sessionSlack, merged and sorted by start.
func anchorTimeline(sn *provgraph.Snapshot, aPages []pageMatch) []span {
	var spans []span
	for _, ap := range aPages {
		for _, v := range sn.VisitsOfPage(ap.page) {
			open, close, ok := sn.OpenClose(v)
			if !ok {
				continue
			}
			spans = append(spans, visitSpan(open, close, sessionSlack))
		}
	}
	if len(spans) == 0 {
		return nil
	}
	// Spans with equal starts merge to the same timeline in any order, so
	// an unstable sort suffices.
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	merged := spans[:1]
	for _, s := range spans[1:] {
		last := &merged[len(merged)-1]
		if s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
			continue
		}
		merged = append(merged, s)
	}
	return merged
}

// timelineOverlap returns the overlap, in seconds, between v and the
// merged timeline.
func timelineOverlap(timeline []span, v span) float64 {
	if len(timeline) == 0 || v.end <= v.start {
		return 0
	}
	// First span that could overlap: the one before the first span whose
	// start exceeds v.start, and everything after until starts pass
	// v.end.
	i := sort.Search(len(timeline), func(i int) bool { return timeline[i].end > v.start })
	total := int64(0)
	for ; i < len(timeline) && timeline[i].start < v.end; i++ {
		lo := max64(timeline[i].start, v.start)
		hi := min64(timeline[i].end, v.end)
		if hi > lo {
			total += hi - lo
		}
	}
	return float64(total) / 1e6
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

type pageMatch struct {
	page  provgraph.NodeID
	score float64
}

// matchPages runs a textual search restricted to page nodes of the
// run's snapshot.
func (r *Run) matchPages(q string, limit int) []pageMatch {
	sn := r.Snapshot()
	var out []pageMatch
	for _, h := range r.searchIndex(q, 0) {
		id := provgraph.NodeID(h.Doc)
		if kind, _, ok := sn.KindPage(id); ok && kind == provgraph.KindPage {
			out = append(out, pageMatch{page: id, score: h.Score})
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

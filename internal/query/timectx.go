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

// The three durations above in unix microseconds, the unit the kernel
// reads times in (Snapshot.OpenCloseUS).
const (
	sessionSlackUS = int64(sessionSlack / time.Microsecond)
	assumedDwellUS = int64(assumedDwell / time.Microsecond)
	maxDwellUS     = int64(maxDwell / time.Microsecond)
)

// span is a half-open display interval.
type span struct{ start, end int64 } // unix micros

// TimeContextualSearch implements §2.3: "wine associated with plane
// tickets". Pages matching q are ranked by how much their visits
// overlapped in time with visits of pages matching anchor.
//
// Each anchor page's padded visit intervals are coalesced as they are
// read, and the coalesced spans (m of them, at most one per anchor
// visit and on real histories far fewer: one sitting's revisits of a
// page collapse into one span) are sorted and merged into a timeline,
// so each query visit costs one binary search. The whole query is
// O(|anchor visits| + m log m + |q visits| log m), read entirely from
// the snapshot's integer time columns.
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
			open, close, ok := sn.OpenCloseUS(vid)
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
// the given unix microseconds, padded by pad microseconds on both sides.
// A missing close (0), or one before the open, is replaced by
// assumedDwell; the dwell is capped at maxDwell.
func visitSpan(open, close, pad int64) span {
	if close == 0 || close < open {
		close = open + assumedDwellUS
	}
	if close-open > maxDwellUS {
		close = open + maxDwellUS
	}
	return span{start: open - pad, end: close + pad}
}

// anchorTimeline collects all anchor visits' intervals, padded by
// sessionSlack, merged and sorted by start. A page's spans are
// coalesced in visit order first: a span that overlaps (or touches) the
// page's previous span widens it to their union instead of adding an
// entry. Unions only ever join overlapping spans, so the covered time is
// the same whatever order the visits come in, and the sort sees far
// fewer entries.
func anchorTimeline(sn *provgraph.Snapshot, aPages []pageMatch) []span {
	var spans []span
	for _, ap := range aPages {
		prev := -1 // index of this page's latest span
		for _, v := range sn.VisitsOfPage(ap.page) {
			open, close, ok := sn.OpenCloseUS(v)
			if !ok {
				continue
			}
			s := visitSpan(open, close, sessionSlackUS)
			if prev >= 0 {
				if p := &spans[prev]; s.start <= p.end && p.start <= s.end {
					p.start = min(p.start, s.start)
					p.end = max(p.end, s.end)
					continue
				}
			}
			spans = append(spans, s)
			prev = len(spans) - 1
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
		lo := max(timeline[i].start, v.start)
		hi := min(timeline[i].end, v.end)
		if hi > lo {
			total += hi - lo
		}
	}
	return float64(total) / 1e6
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

package query

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
)

// The time-contextual kernel reads integer microseconds and coalesces
// each anchor page's spans before its sort. naiveTimeContextual is the
// same query without either — time.Time arithmetic on full nodes, every
// raw anchor visit sorted, a linear overlap scan — and the tests below
// require the kernel to agree with it bit for bit.

// naiveSpan is the reference visitSpan, on time.Time.
func naiveSpan(open, close time.Time, pad time.Duration) span {
	if close.IsZero() || close.Before(open) {
		close = open.Add(assumedDwell)
	}
	if close.Sub(open) > maxDwell {
		close = open.Add(maxDwell)
	}
	return span{start: open.Add(-pad).UnixMicro(), end: close.Add(pad).UnixMicro()}
}

// naiveTimeline is the reference anchorTimeline: every anchor visit's
// padded span, sorted by start and merged.
func naiveTimeline(sn *provgraph.Snapshot, aPages []pageMatch) []span {
	var spans []span
	for _, ap := range aPages {
		for _, v := range sn.VisitsOfPage(ap.page) {
			n, ok := sn.NodeByID(v)
			if !ok {
				continue
			}
			spans = append(spans, naiveSpan(n.Open, n.Close, sessionSlack))
		}
	}
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
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

// naiveOverlap is the reference overlap of v against a timeline: a
// linear scan of every span.
func naiveOverlap(timeline []span, v span) float64 {
	total := int64(0)
	for _, s := range timeline {
		if lo, hi := max(s.start, v.start), min(s.end, v.end); hi > lo {
			total += hi - lo
		}
	}
	return float64(total) / 1e6
}

// naiveTimeContextual runs the whole reference query on r's snapshot.
func naiveTimeContextual(r *Run, q, anchor string) []TimeHit {
	sn := r.Snapshot()
	timeline := naiveTimeline(sn, r.matchPages(anchor, 200))
	var hits []TimeHit
	for _, qp := range r.matchPages(q, 200) {
		overlap := 0.0
		for _, vid := range sn.VisitsOfPage(qp.page) {
			n, ok := sn.NodeByID(vid)
			if !ok {
				continue
			}
			overlap += naiveOverlap(timeline, naiveSpan(n.Open, n.Close, 0))
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
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].Page < hits[j].Page
	})
	return hits
}

var timectxPairs = [][2]string{
	{"wine", "plane tickets"},
	{"tickets", "wine"},
	{"garden", "cellar"},
	{"wine", "wine"},
	// Anchors matching a page or two leave gaps in the timeline, where
	// a wrongly coalesced span shows.
	{"wine", "museum"},
	{"tickets", "hotel"},
}

// checkTimeContextMatchesNaive runs every query pair through the kernel
// and the reference on e's current snapshot and requires equal hits.
func checkTimeContextMatchesNaive(t *testing.T, label string, e *Engine) {
	t.Helper()
	ctx := context.Background()
	v := e.View()
	total := 0
	for _, qa := range timectxPairs {
		got, _, err := v.TimeContextualSearch(ctx, qa[0], qa[1], 0, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		r, err := v.Begin(ctx, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		want := naiveTimeContextual(r, qa[0], qa[1])
		r.Finish()
		if len(got) != len(want) {
			t.Fatalf("%s: TimeContextualSearch(%q, %q) gave %d hits, reference %d", label, qa[0], qa[1], len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: TimeContextualSearch(%q, %q) hit %d = %+v, reference %+v", label, qa[0], qa[1], i, got[i], want[i])
			}
		}
		total += len(got)
	}
	if total == 0 {
		t.Fatalf("%s: no query found a hit; fixture too small", label)
	}
}

// timectxHistory drives seeded random browsing over a few tabs whose
// times carry nanoseconds and sometimes run backwards, so the store sees
// visits that are never closed, closes before opens, dwells longer than
// maxDwell and page visit lists out of open order.
type timectxHistory struct {
	rng   *rand.Rand
	now   time.Time
	urls  []string
	title []string
	cur   map[int]string // tab -> URL on display
}

func newTimectxHistory(seed int64) *timectxHistory {
	h := &timectxHistory{
		rng: rand.New(rand.NewSource(seed)),
		now: time.Date(2009, 3, 1, 8, 0, 0, 0, time.UTC),
		cur: make(map[int]string),
	}
	topics := []string{"wine cellar", "plane tickets", "wine tickets", "garden flower", "cellar", "news story"}
	for i := 0; i < 40; i++ {
		h.urls = append(h.urls, fmt.Sprintf("http://h%d.example/p%d", i%9, i))
		h.title = append(h.title, fmt.Sprintf("%s %s %d", topics[h.rng.Intn(len(topics))], vocab[h.rng.Intn(len(vocab))], i))
	}
	return h
}

func (h *timectxHistory) at() time.Time {
	switch r := h.rng.Float64(); {
	case r < 0.05:
		h.now = h.now.Add(5 * time.Hour)
	case r < 0.08:
		// Backdated by hours: a visit that opens before, and clear of,
		// the page's visits already recorded.
		return h.now.Add(-3*time.Hour - time.Duration(h.rng.Int63n(int64(5*time.Hour))))
	case r < 0.15:
		// Backdated: the event reports a time before ones already seen.
		return h.now.Add(-time.Duration(h.rng.Int63n(int64(90 * time.Minute))))
	default:
		h.now = h.now.Add(time.Duration(10+h.rng.Intn(600)) * time.Second)
	}
	return h.now.Add(time.Duration(h.rng.Intn(1e9)))
}

func (h *timectxHistory) apply(t *testing.T, s *provgraph.Store, events int) {
	t.Helper()
	for i := 0; i < events; i++ {
		tab := 1 + h.rng.Intn(4)
		var ev *event.Event
		if cur, ok := h.cur[tab]; ok && h.rng.Float64() < 0.1 {
			ev = &event.Event{Time: h.at(), Type: event.TypeClose, Tab: tab, URL: cur}
			delete(h.cur, tab)
		} else {
			p := h.rng.Intn(len(h.urls))
			ev = &event.Event{Time: h.at(), Type: event.TypeVisit, Tab: tab, URL: h.urls[p], Title: h.title[p], Transition: event.TransTyped}
			if cur, ok := h.cur[tab]; ok && h.rng.Float64() < 0.5 {
				ev.Referrer, ev.Transition = cur, event.TransLink
			}
			h.cur[tab] = h.urls[p]
		}
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// requireTimeEdgeCases fails unless the store's visits include each
// case the kernel treats specially.
func requireTimeEdgeCases(t *testing.T, sn *provgraph.Snapshot) {
	t.Helper()
	var unclosed, backwards, long, unordered int
	for id := provgraph.NodeID(1); id <= sn.MaxNodeID(); id++ {
		if kind, _, _ := sn.KindPage(id); kind != provgraph.KindPage {
			continue
		}
		var last time.Time
		for _, v := range sn.VisitsOfPage(id) {
			n, _ := sn.NodeByID(v)
			switch {
			case n.Close.IsZero():
				unclosed++
			case n.Close.Before(n.Open):
				backwards++
			case n.Close.Sub(n.Open) > maxDwell:
				long++
			}
			if n.Open.Before(last) {
				unordered++
			}
			last = n.Open
		}
	}
	if unclosed == 0 || backwards == 0 || long == 0 || unordered == 0 {
		t.Fatalf("fixture lacks a case: %d never closed, %d closed before open, %d over maxDwell, %d out of open order", unclosed, backwards, long, unordered)
	}
}

// TestTimeContextMatchesNaive checks the kernel against the reference on
// every backing a visit can be read from: the live tail, a slab-sealed
// epoch, a tail over it, a mapped column epoch and a tail over that.
func TestTimeContextMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := t.TempDir()
			s, err := provgraph.OpenWith(dir, provgraph.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			h := newTimectxHistory(seed)

			h.apply(t, s, 400)
			checkTimeContextMatchesNaive(t, "tail", NewEngine(s, Options{}))

			s.ForceReseal()
			s.WaitReseal()
			checkTimeContextMatchesNaive(t, "slab", NewEngine(s, Options{}))
			h.apply(t, s, 150)
			checkTimeContextMatchesNaive(t, "slab+tail", NewEngine(s, Options{}))

			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = provgraph.OpenWith(dir, provgraph.Options{}); err != nil {
				t.Fatal(err)
			}
			if s.MappedInfo().MappedBytes == 0 {
				t.Fatal("reopened checkpoint is not mapped")
			}
			checkTimeContextMatchesNaive(t, "mapped", NewEngine(s, Options{}))
			h.apply(t, s, 150)
			e := NewEngine(s, Options{})
			requireTimeEdgeCases(t, e.Snapshot())
			checkTimeContextMatchesNaive(t, "mapped+tail", e)
		})
	}
}

// TestReopenKeepsEventTimes: a store restarted from its checkpoint and
// WAL holds the same times as the live store did, although the events
// carried nanoseconds and the journal keeps microseconds. The fixture's
// wine visit closes 300 ns before it opens, inside one microsecond: kept
// at nanoseconds the live store would see a backwards close (an assumed
// dwell) where the reopened one sees an empty visit.
func TestReopenKeepsEventTimes(t *testing.T) {
	ctx := context.Background()
	at := time.Date(2009, 3, 1, 8, 0, 20, 123456789, time.UTC)
	events := []*event.Event{
		{Time: at.Add(-time.Minute), Type: event.TypeVisit, Tab: 1, URL: "http://tickets.example/", Title: "Plane tickets", Transition: event.TransTyped},
		{Time: at, Type: event.TypeVisit, Tab: 2, URL: "http://wine.example/", Title: "Wine shop", Transition: event.TransTyped},
		{Time: at.Add(-300 * time.Nanosecond), Type: event.TypeClose, Tab: 2, URL: "http://wine.example/"},
		{Time: at.Add(time.Second + 7), Type: event.TypeVisit, Tab: 3, URL: "http://wine.example/", Title: "Wine shop", Transition: event.TransTyped},
		{Time: at.Add(2*time.Second + 999), Type: event.TypeVisit, Tab: 3, URL: "http://tickets.example/", Title: "Plane tickets", Referrer: "http://wine.example/", Transition: event.TransLink},
	}
	type state struct {
		nodes []provgraph.Node
		oc    [][2]time.Time
		edges []provgraph.Edge
		hits  []TimeHit
	}
	capture := func(s *provgraph.Store) state {
		var st state
		sn := s.Snapshot()
		for id := provgraph.NodeID(1); id <= sn.MaxNodeID(); id++ {
			n, _ := sn.NodeByID(id)
			o, c, _ := sn.OpenClose(id)
			st.nodes = append(st.nodes, n)
			st.oc = append(st.oc, [2]time.Time{o, c})
			st.edges = append(st.edges, sn.OutEdges(id)...)
		}
		hits, _, err := NewEngine(s, Options{}).View().TimeContextualSearch(ctx, "wine", "tickets", 0, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		st.hits = hits
		return st
	}
	for _, mode := range []provgraph.VersioningMode{provgraph.VersionNodes, provgraph.VersionEdges} {
		for _, noMmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/noMmap=%v", mode, noMmap), func(t *testing.T) {
				dir := t.TempDir()
				s, err := provgraph.OpenWith(dir, provgraph.Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				for i, ev := range events {
					if err := s.Apply(ev); err != nil {
						t.Fatal(err)
					}
					if i == 2 {
						// The rest replays from the WAL over the checkpoint.
						if err := s.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}
				live := capture(s)
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := provgraph.OpenWith(dir, provgraph.Options{Mode: mode, NoMmap: noMmap})
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				got := capture(re)
				for i := range live.nodes {
					if got.nodes[i] != live.nodes[i] {
						t.Errorf("NodeByID(%d): reopened %+v, live %+v", i+1, got.nodes[i], live.nodes[i])
					}
					if got.oc[i] != live.oc[i] {
						t.Errorf("OpenClose(%d): reopened %v, live %v", i+1, got.oc[i], live.oc[i])
					}
				}
				if fmt.Sprint(got.edges) != fmt.Sprint(live.edges) {
					t.Errorf("edges: reopened %v, live %v", got.edges, live.edges)
				}
				if fmt.Sprint(got.hits) != fmt.Sprint(live.hits) {
					t.Errorf("TimeContextualSearch: reopened %+v, live %+v", got.hits, live.hits)
				}
				if mode == provgraph.VersionNodes && len(live.hits) == 0 {
					t.Error("no time-contextual hit; fixture broken")
				}
			})
		}
	}
}

// BenchmarkTimeContextualSearch times the §2.3 query on a store reopened
// from its mapped checkpoint, so every visit time is read from the
// column-backed epoch.
func BenchmarkTimeContextualSearch(b *testing.B) {
	dir := b.TempDir()
	s, err := provgraph.OpenWith(dir, provgraph.Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	now := time.Date(2009, 3, 1, 8, 0, 0, 0, time.UTC)
	topics := []string{"wine cellar", "plane tickets", "garden flower", "news story", "cheese market"}
	for i := 0; i < 20000; i++ {
		now = now.Add(time.Duration(30+rng.Intn(900)) * time.Second)
		p := rng.Intn(400)
		ev := &event.Event{
			Time: now, Type: event.TypeVisit, Tab: 1 + rng.Intn(3),
			URL:        fmt.Sprintf("http://h%d.example/p%d", p%17, p),
			Title:      fmt.Sprintf("%s %d", topics[p%len(topics)], p),
			Transition: event.TransTyped,
		}
		if err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if s, err = provgraph.OpenWith(dir, provgraph.Options{}); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	v := NewEngine(s, Options{}).View()
	ctx := context.Background()
	hits, _, err := v.TimeContextualSearch(ctx, "wine", "plane tickets", 10)
	if err != nil || len(hits) == 0 {
		b.Fatalf("no hits (err %v); fixture broken", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.TimeContextualSearch(ctx, "wine", "plane tickets", 10); err != nil {
			b.Fatal(err)
		}
	}
}

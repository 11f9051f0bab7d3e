package provgraph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
	"time"

	"browserprov/internal/event"
)

// genEvents produces a random but valid browsing event stream: the kind
// of arbitrary interleaving of visits, searches, downloads, bookmarks,
// closes and tab switches a real user generates.
func genEvents(seed int64, n int) []*event.Event {
	rng := rand.New(rand.NewSource(seed))
	now := t0
	tick := func() time.Time {
		now = now.Add(time.Duration(1+rng.Intn(300)) * time.Second)
		return now
	}
	urls := make([]string, 30)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://site%d.example/page%d", i%6, i)
	}
	// Track per-tab current URL so referrers are plausible.
	tabURL := map[int]string{}
	pickTab := func() int { return 1 + rng.Intn(3) }

	// otherTabURL returns the URL another tab is showing, or "".
	otherTabURL := func(tab int) string {
		for t := 1; t <= 3; t++ {
			if t != tab && tabURL[t] != "" {
				return tabURL[t]
			}
		}
		return ""
	}
	// Inner content: some embedded URLs are also navigated to, others
	// (the ad frames) only ever load as embeds or framed links.
	embedURL := func() string {
		if rng.Intn(2) == 0 {
			return urls[rng.Intn(len(urls))]
		}
		return fmt.Sprintf("http://ads.example/frame%d", rng.Intn(4))
	}
	var embedded []string

	var evs []*event.Event
	for len(evs) < n {
		tab := pickTab()
		switch rng.Intn(13) {
		case 0, 1, 2, 3, 4: // link or typed visit
			u := urls[rng.Intn(len(urls))]
			tr := event.TransLink
			ref := tabURL[tab]
			if ref == "" || rng.Intn(4) == 0 {
				tr = event.TransTyped
				ref = ""
			}
			evs = append(evs, &event.Event{Time: tick(), Type: event.TypeVisit, Tab: tab,
				URL: u, Title: "T " + u, Referrer: ref, Transition: tr})
			tabURL[tab] = u
		case 5: // search + results + click
			terms := fmt.Sprintf("query%d word%d", rng.Intn(5), rng.Intn(8))
			results := "http://search.example/?q=" + fmt.Sprint(rng.Intn(5))
			evs = append(evs, &event.Event{Time: tick(), Type: event.TypeSearch, Tab: tab, Terms: terms, URL: results})
			evs = append(evs, &event.Event{Time: tick(), Type: event.TypeVisit, Tab: tab,
				URL: results, Title: terms + " - Search", Referrer: tabURL[tab], Transition: event.TransLink})
			tabURL[tab] = results
			u := urls[rng.Intn(len(urls))]
			evs = append(evs, &event.Event{Time: tick(), Type: event.TypeVisit, Tab: tab,
				URL: u, Title: "T " + u, Referrer: results, Transition: event.TransSearchResult})
			tabURL[tab] = u
		case 6: // download
			if cur := tabURL[tab]; cur != "" {
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeDownload, Tab: tab,
					URL: cur + "/file.zip", Referrer: cur,
					SavePath: fmt.Sprintf("/dl/f%d.zip", len(evs)), ContentType: "application/zip"})
			}
		case 7: // bookmark current
			if cur := tabURL[tab]; cur != "" {
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeBookmarkAdd, Tab: tab,
					URL: cur, Title: "B " + cur})
			}
		case 8: // close tab
			if cur := tabURL[tab]; cur != "" {
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeClose, Tab: tab, URL: cur})
				delete(tabURL, tab)
			}
		case 9: // redirect hop
			if cur := tabURL[tab]; cur != "" {
				mid := fmt.Sprintf("http://shrt.example/%d", rng.Intn(50))
				dst := urls[rng.Intn(len(urls))]
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeVisit, Tab: tab,
					URL: mid, Referrer: cur, Transition: event.TransLink})
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeVisit, Tab: tab,
					URL: dst, Title: "T " + dst, Referrer: mid, Transition: event.TransRedirectTemporary})
				tabURL[tab] = dst
			}
		case 10: // embedded content or a framed link inside the current page
			if cur := tabURL[tab]; cur != "" {
				u := embedURL()
				tr := event.TransEmbed
				if rng.Intn(3) == 0 {
					tr = event.TransFramedLink
				}
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeVisit, Tab: tab,
					URL: u, Title: "E " + u, Referrer: cur, Transition: tr})
				embedded = append(embedded, u)
			}
		case 11: // download whose referrer is another tab's page or an embed
			ref := otherTabURL(tab)
			if len(embedded) > 0 && (ref == "" || rng.Intn(2) == 0) {
				ref = embedded[rng.Intn(len(embedded))]
			}
			if ref != "" {
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeDownload, Tab: tab,
					URL: ref + "/get.bin", Referrer: ref,
					SavePath: fmt.Sprintf("/dl/g%d.bin", len(evs)), ContentType: "application/octet-stream"})
			}
		case 12: // bookmark of a page shown in another tab, or of an embed
			u := otherTabURL(tab)
			if len(embedded) > 0 && (u == "" || rng.Intn(2) == 0) {
				u = embedded[rng.Intn(len(embedded))]
			}
			if u != "" {
				evs = append(evs, &event.Event{Time: tick(), Type: event.TypeBookmarkAdd, Tab: tab,
					URL: u, Title: "B " + u})
			}
		}
	}
	return evs
}

// TestPropertyDAGUnderRandomStreams: the acyclicity invariant (§3.1)
// must hold for every valid event stream.
func TestPropertyDAGUnderRandomStreams(t *testing.T) {
	f := func(seed int64) bool {
		s, err := Open(t.TempDir())
		if err != nil {
			return false
		}
		defer s.Close()
		for _, ev := range genEvents(seed, 300) {
			if err := s.Apply(ev); err != nil {
				return false
			}
		}
		return s.VerifyDAG() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEdgesRespectTime: every provenance edge points from an
// earlier (or equal) instance to a later one.
func TestPropertyEdgesRespectTime(t *testing.T) {
	f := func(seed int64) bool {
		s, err := Open(t.TempDir())
		if err != nil {
			return false
		}
		defer s.Close()
		for _, ev := range genEvents(seed, 300) {
			if err := s.Apply(ev); err != nil {
				return false
			}
		}
		ok := true
		sn := s.Snapshot()
		sn.NodesSince(0, func(n Node) bool {
			for _, e := range sn.OutEdges(n.ID) {
				to, found := sn.NodeByID(e.To)
				if !found || to.Open.Before(n.Open) {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRecoveryRoundTrip: crash recovery (WAL replay) and
// checkpoint+reopen must both reconstruct the identical graph.
func TestPropertyRecoveryRoundTrip(t *testing.T) {
	f := func(seed int64, checkpoint bool) bool {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			return false
		}
		evs := genEvents(seed, 200)
		for _, ev := range evs {
			if err := s.Apply(ev); err != nil {
				s.Close()
				return false
			}
		}
		if checkpoint {
			if err := s.Checkpoint(); err != nil {
				s.Close()
				return false
			}
		}
		want := s.Snapshot().Stats()
		wantEdges := edgeFingerprint(s)
		if err := s.Close(); err != nil {
			return false
		}

		s2, err := Open(dir)
		if err != nil {
			return false
		}
		defer s2.Close()
		if s2.Snapshot().Stats() != want {
			return false
		}
		return edgeFingerprint(s2) == wantEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// edgeFingerprint folds every edge (from, to, kind, at) into an
// order-independent hash.
func edgeFingerprint(s *Store) uint64 {
	var h uint64
	sn := s.Snapshot()
	sn.NodesSince(0, func(n Node) bool {
		for _, e := range sn.OutEdges(n.ID) {
			x := uint64(e.From)*1_000_003 ^ uint64(e.To)*7919 ^ uint64(e.Kind)*104729 ^ uint64(e.At.UnixMicro())
			// Mix and fold commutatively so iteration order is moot.
			x ^= x >> 33
			x *= 0xff51afd7ed558ccd
			x ^= x >> 33
			h += x
		}
		return true
	})
	return h
}

// TestPropertyVisitCountsMatchVisits: per-page instance lists are
// consistent with the global stats under random streams.
func TestPropertyVisitCountsMatchVisits(t *testing.T) {
	f := func(seed int64) bool {
		s, err := Open(t.TempDir())
		if err != nil {
			return false
		}
		defer s.Close()
		for _, ev := range genEvents(seed, 250) {
			if err := s.Apply(ev); err != nil {
				return false
			}
		}
		total := 0
		for _, page := range nodesOfKind(s.Snapshot(), KindPage) {
			vs := s.Snapshot().VisitsOfPage(page)
			total += len(vs)
			// VisitSeq must be 1..len in order.
			for i, v := range vs {
				n, ok := s.Snapshot().NodeByID(v)
				if !ok || n.VisitSeq != i+1 || n.Page != page {
					return false
				}
			}
		}
		return total == s.Snapshot().Stats().Visits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// snapshotDiff compares two snapshots over their whole read surface:
// counts, every ID's node, edges and visit list, every URL, term and
// save-path lookup the nodes name, Downloads, OpenBetween over all time
// and the §3.2 lens rows. It returns the first difference, or "".
func snapshotDiff(want, got *Snapshot) string {
	if want.MaxNodeID() != got.MaxNodeID() || want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
		return fmt.Sprintf("counts (max %d, nodes %d, edges %d), want (%d, %d, %d)",
			got.MaxNodeID(), got.NumNodes(), got.NumEdges(), want.MaxNodeID(), want.NumNodes(), want.NumEdges())
	}
	lookupID := func(n Node, ok bool) NodeID {
		if !ok {
			return 0
		}
		return n.ID
	}
	wl, gl := want.Lens(), got.Lens()
	for id := NodeID(1); id <= want.MaxNodeID(); id++ {
		wn, wok := want.NodeByID(id)
		gn, gok := got.NodeByID(id)
		if wok != gok || (wok && !sameNode(wn, gn)) {
			return fmt.Sprintf("node %d = %+v (%v), want %+v (%v)", id, gn, gok, wn, wok)
		}
		wk, wp, _ := want.KindPage(id)
		gk, gp, _ := got.KindPage(id)
		wo, wc, _ := want.OpenClose(id)
		gO, gc, _ := got.OpenClose(id)
		if wk != gk || wp != gp || !wo.Equal(gO) || !wc.Equal(gc) {
			return fmt.Sprintf("node %d column reads differ", id)
		}
		if !sameIDs(want.Out(id), got.Out(id)) || !sameIDs(want.In(id), got.In(id)) {
			return fmt.Sprintf("Out/In(%d) = %v/%v, want %v/%v", id, got.Out(id), got.In(id), want.Out(id), want.In(id))
		}
		if !sameEdges(want.OutEdges(id), got.OutEdges(id)) || !sameEdges(want.InEdges(id), got.InEdges(id)) {
			return fmt.Sprintf("edges of %d = %v/%v, want %v/%v", id, got.OutEdges(id), got.InEdges(id), want.OutEdges(id), want.InEdges(id))
		}
		if !sameIDs(want.VisitsOfPage(id), got.VisitsOfPage(id)) || want.VisitCount(id) != got.VisitCount(id) {
			return fmt.Sprintf("visits of %d = %v, want %v", id, got.VisitsOfPage(id), want.VisitsOfPage(id))
		}
		if !sameIDs(wl.Out(id), gl.Out(id)) || !sameIDs(wl.In(id), gl.In(id)) {
			return fmt.Sprintf("lens Out/In(%d) = %v/%v, want %v/%v", id, gl.Out(id), gl.In(id), wl.Out(id), wl.In(id))
		}
		if !wok {
			continue
		}
		if wn.URL != "" {
			if w, g := lookupID(want.PageByURL(wn.URL)), lookupID(got.PageByURL(wn.URL)); w != g {
				return fmt.Sprintf("PageByURL(%q) = %d, want %d", wn.URL, g, w)
			}
		}
		if wn.Text != "" {
			if w, g := lookupID(want.TermNode(wn.Text)), lookupID(got.TermNode(wn.Text)); w != g {
				return fmt.Sprintf("TermNode(%q) = %d, want %d", wn.Text, g, w)
			}
			if w, g := lookupID(want.DownloadBySavePath(wn.Text)), lookupID(got.DownloadBySavePath(wn.Text)); w != g {
				return fmt.Sprintf("DownloadBySavePath(%q) = %d, want %d", wn.Text, g, w)
			}
		}
	}
	if w, g := want.Downloads(), got.Downloads(); !sameIDs(w, g) {
		return fmt.Sprintf("Downloads = %v, want %v", g, w)
	}
	lo, hi := time.Time{}, time.Unix(1<<40, 0)
	if w, g := want.OpenBetween(lo, hi), got.OpenBetween(lo, hi); !sameIDs(w, g) {
		return fmt.Sprintf("OpenBetween = %v, want %v", g, w)
	}
	return ""
}

// nodesOfKind returns the IDs of every node of the given kind, in ID
// order.
func nodesOfKind(sn *Snapshot, kind NodeKind) []NodeID {
	var out []NodeID
	for id := NodeID(1); id <= sn.MaxNodeID(); id++ {
		if k, _, ok := sn.KindPage(id); ok && k == kind {
			out = append(out, id)
		}
	}
	return out
}

// scheduleOp is one store-layout action a schedule takes between event
// batches.
type scheduleOp int

const (
	opNone scheduleOp = iota
	opReseal
	opResealWait
	opReopenCheckpoint
	opReopenWAL
)

// TestPropertyScheduleEquivalence: the same events must build the same
// store whatever happens to its layout in between — background reseals
// (waited for or still in flight), checkpoint + reopen (mapped or read
// into the heap), and close + reopen by WAL replay — with one retention
// pass at the same point in every schedule. Every schedule is compared
// with a reference store that takes none of those actions after every
// step, and all of them must end in byte-identical checkpoint files.
func TestPropertyScheduleEquivalence(t *testing.T) {
	for _, mode := range []VersioningMode{VersionNodes, VersionEdges} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) {
				checkScheduleEquivalence(t, mode, seed)
			})
		}
	}
}

func checkScheduleEquivalence(t *testing.T, mode VersioningMode, seed int64) {
	// 300 events stay far below the reseal threshold, so the reference
	// never reseals on its own.
	evs := genEvents(seed, 300)
	rng := rand.New(rand.NewSource(seed))
	var batches [][]*event.Event
	for rest := evs; len(rest) > 0; {
		k := min(1+rng.Intn(16), len(rest))
		batches = append(batches, rest[:k])
		rest = rest[k:]
	}
	expireStep := len(batches) / 2
	cutoff := batches[expireStep/2][0].Time

	type schedule struct {
		name string
		opts Options
		ops  []scheduleOp // one per step
		dir  string
		s    *Store
	}
	random := func(ops ...scheduleOp) []scheduleOp {
		out := make([]scheduleOp, len(batches))
		for i := range out {
			if rng.Intn(3) == 0 {
				out[i] = ops[rng.Intn(len(ops))]
			}
		}
		return out
	}
	scheds := []*schedule{
		{name: "reference", ops: make([]scheduleOp, len(batches))},
		{name: "reseal", ops: random(opReseal)},
		{name: "reseal-wait", ops: random(opResealWait)},
		{name: "reopen-mapped", ops: random(opReopenCheckpoint)},
		{name: "reopen-heap", opts: Options{NoMmap: true}, ops: random(opReopenCheckpoint)},
		{name: "reopen-wal", ops: random(opReopenWAL)},
		{name: "mixed", ops: random(opReseal, opResealWait, opReopenCheckpoint, opReopenWAL)},
	}
	open := func(sc *schedule) {
		opts := sc.opts
		opts.Mode = mode
		s, err := OpenWith(sc.dir, opts)
		if err != nil {
			t.Fatalf("%s: open: %v", sc.name, err)
		}
		sc.s = s
	}
	for _, sc := range scheds {
		sc.dir = t.TempDir()
		open(sc)
	}
	defer func() {
		for _, sc := range scheds {
			sc.s.Close()
		}
	}()
	ref := scheds[0]
	for step, batch := range batches {
		for _, sc := range scheds {
			if err := sc.s.ApplyBatch(batch); err != nil {
				t.Fatalf("%s: step %d: %v", sc.name, step, err)
			}
			if step == expireStep {
				if _, err := sc.s.ExpireBefore(cutoff); err != nil {
					t.Fatalf("%s: expire: %v", sc.name, err)
				}
			}
			switch sc.ops[step] {
			case opReseal:
				sc.s.ForceReseal()
			case opResealWait:
				sc.s.ForceReseal()
				sc.s.WaitReseal()
			case opReopenCheckpoint, opReopenWAL:
				if sc.ops[step] == opReopenCheckpoint {
					if err := sc.s.Checkpoint(); err != nil {
						t.Fatalf("%s: checkpoint: %v", sc.name, err)
					}
				}
				if err := sc.s.Close(); err != nil {
					t.Fatalf("%s: close: %v", sc.name, err)
				}
				open(sc)
			}
		}
		want := ref.s.Snapshot()
		for _, sc := range scheds[1:] {
			if d := snapshotDiff(want, sc.s.Snapshot()); d != "" {
				t.Fatalf("%s: after step %d (op %d): %s", sc.name, step, sc.ops[step], d)
			}
		}
	}
	var wantBytes []byte
	for _, sc := range scheds {
		if err := sc.s.Checkpoint(); err != nil {
			t.Fatalf("%s: final checkpoint: %v", sc.name, err)
		}
		b, err := os.ReadFile(sc.s.ReplicationInfo().SnapshotPath)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if sc == ref {
			wantBytes = b
		} else if !bytes.Equal(b, wantBytes) {
			t.Fatalf("%s: checkpoint file differs from the reference's (%d vs %d bytes)", sc.name, len(b), len(wantBytes))
		}
	}
}

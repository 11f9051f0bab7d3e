package provgraph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"browserprov/internal/event"
)

// naiveLens is the reference the memoised SnapLens must match: every
// call re-resolves redirect chains and re-scans out-edges, with no memo.
type naiveLens struct{ sn *Snapshot }

func (l naiveLens) resolve(n NodeID) NodeID {
	cur := n
	for hops := 0; hops < 32; hops++ {
		next := NodeID(0)
		for _, e := range l.sn.OutEdges(cur) {
			if e.Kind == EdgeRedirectPermanent || e.Kind == EdgeRedirectTemporary {
				next = e.To
				break
			}
		}
		if next == 0 {
			break
		}
		cur = next
	}
	return cur
}

func (l naiveLens) spliced(n NodeID) bool {
	for _, e := range l.sn.OutEdges(n) {
		if e.Kind == EdgeRedirectPermanent || e.Kind == EdgeRedirectTemporary {
			return true
		}
	}
	return false
}

func (l naiveLens) Out(n NodeID) []NodeID {
	var out []NodeID
	for _, e := range l.sn.OutEdges(n) {
		if e.Kind == EdgeEmbed || e.Kind == EdgeFramedLink {
			continue
		}
		if t := l.resolve(e.To); t != n {
			out = append(out, t)
		}
	}
	return out
}

func (l naiveLens) In(n NodeID) []NodeID {
	entered := []NodeID{n}
	return l.appendIn(n, nil, &entered)
}

// appendIn recurses through spliced predecessors, expanding at most 32
// of them per In call and none twice (entered holds the root and every
// node expanded so far).
func (l naiveLens) appendIn(n NodeID, buf []NodeID, entered *[]NodeID) []NodeID {
	for _, e := range l.sn.InEdges(n) {
		if e.Kind == EdgeEmbed || e.Kind == EdgeFramedLink {
			continue
		}
		if !l.spliced(e.From) {
			buf = append(buf, e.From)
		} else if len(*entered) <= 32 && !slices.Contains(*entered, e.From) {
			*entered = append(*entered, e.From)
			buf = l.appendIn(e.From, buf, entered)
		}
	}
	return buf
}

// lensMustMatchNaive compares the snapshot's lens with the reference on
// every node, in a random order and twice, so both the resolving and the
// memo-hit paths are checked.
func lensMustMatchNaive(t *testing.T, sn *Snapshot, rng *rand.Rand) {
	t.Helper()
	ref := naiveLens{sn}
	lens := sn.Lens()
	for pass := 0; pass < 2; pass++ {
		for _, i := range rng.Perm(int(sn.MaxNodeID())) {
			id := NodeID(i + 1)
			if got, want := lens.Out(id), ref.Out(id); !sameIDs(got, want) {
				t.Fatalf("pass %d: lens Out(%d) = %v, want %v", pass, id, got, want)
			}
			if got, want := lens.In(id), ref.In(id); !sameIDs(got, want) {
				t.Fatalf("pass %d: lens In(%d) = %v, want %v", pass, id, got, want)
			}
		}
	}
}

// feedRandomLinks applies n random visits over a pool of urls URLs, so
// pages recur and redirects chain: links, typed navigations, embeds,
// framed links and both redirect kinds, across three tabs.
func feedRandomLinks(t *testing.T, s *Store, rng *rand.Rand, n, urls int, base time.Time) {
	t.Helper()
	trans := []event.Transition{
		event.TransLink, event.TransLink, event.TransTyped,
		event.TransEmbed, event.TransFramedLink,
		event.TransRedirectPermanent, event.TransRedirectTemporary, event.TransRedirectTemporary,
	}
	url := func() string { return fmt.Sprintf("http://r%d.example/", rng.Intn(urls)) }
	for i := 0; i < n; i++ {
		tr := trans[rng.Intn(len(trans))]
		ref := ""
		if tr != event.TransTyped {
			ref = url()
		}
		mustApply(t, s, visit(1+rng.Intn(3), url(), "", ref, tr, base.Add(time.Duration(i)*time.Second)))
	}
}

// feedRedirectChain applies a three-hop redirect chain on tab 1 with an
// embed and a framed link off its end: start -> h1 -> h2 -> end.
func feedRedirectChain(t *testing.T, s *Store, prefix string, at time.Time) {
	t.Helper()
	u := func(name string) string { return "http://" + prefix + "-" + name + ".example/" }
	mustApply(t, s,
		visit(1, u("start"), "Start", "", event.TransTyped, at),
		visit(1, u("h1"), "", u("start"), event.TransLink, at.Add(time.Second)),
		visit(1, u("h2"), "", u("h1"), event.TransRedirectPermanent, at.Add(2*time.Second)),
		visit(1, u("end"), "End", u("h2"), event.TransRedirectTemporary, at.Add(3*time.Second)),
		visit(1, u("ad"), "", u("end"), event.TransEmbed, at.Add(4*time.Second)),
		visit(1, u("frame"), "", u("end"), event.TransFramedLink, at.Add(5*time.Second)),
	)
}

func TestSnapLensMatchesNaiveOnRandomGraphs(t *testing.T) {
	// Page-level versioning makes the graph cyclic; its URL pool is
	// wider so the naive reference stays quick.
	// TestSnapLensRedirectCycleBranching covers the narrow pool.
	urls := map[VersioningMode]int{VersionNodes: 12, VersionEdges: 1000}
	for _, mode := range []VersioningMode{VersionNodes, VersionEdges} {
		urls := urls[mode]
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("mode%d/seed%d", mode, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				s, err := OpenWith(t.TempDir(), Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				feedRedirectChain(t, s, "a", t0)
				feedRandomLinks(t, s, rng, 300, urls, t0.Add(time.Hour))
				lensMustMatchNaive(t, s.Snapshot(), rng)

				// Seal, then keep feeding: the tail now adds out-edges
				// (redirects among them) to sealed nodes.
				s.ForceReseal()
				s.WaitReseal()
				feedRandomLinks(t, s, rng, 150, urls, t0.Add(3*time.Hour))
				lensMustMatchNaive(t, s.Snapshot(), rng)

				// A snapshot chained over an in-flight reseal capture.
				gate := make(chan struct{})
				s.mu.Lock()
				s.sealGate = gate
				s.mu.Unlock()
				s.ForceReseal()
				feedRandomLinks(t, s, rng, 100, urls, t0.Add(5*time.Hour))
				chained := s.Snapshot()
				if chained.base == nil {
					t.Fatal("snapshot taken during a reseal is not chained")
				}
				lensMustMatchNaive(t, chained, rng)
				close(gate)
				s.WaitReseal()
			})
		}
	}
}

// TestSnapLensRedirectCycle: a page-level redirect cycle A -> B -> A
// (possible when edges, not nodes, carry versions) must resolve the same
// as the reference: 32 hops, then stop.
func TestSnapLensRedirectCycle(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Mode: VersionEdges})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://o.example/", "O", "", event.TransTyped, t0),
		visit(1, "http://a.example/", "A", "http://o.example/", event.TransLink, t0.Add(time.Second)),
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransRedirectTemporary, t0.Add(2*time.Second)),
		visit(1, "http://a.example/", "A", "http://b.example/", event.TransRedirectPermanent, t0.Add(3*time.Second)),
	)
	sn := s.Snapshot()
	pa, _ := sn.PageByURL("http://a.example/")
	pb, _ := sn.PageByURL("http://b.example/")
	if redirectTarget(sn.OutEdges(pa.ID)) != pb.ID || redirectTarget(sn.OutEdges(pb.ID)) != pa.ID {
		t.Fatal("fixture did not build an A -> B -> A redirect cycle")
	}
	lensMustMatchNaive(t, sn, rand.New(rand.NewSource(1)))
}

// TestSnapLensTailRedirectOnSealedNode: a redirect out-edge added in the
// tail to a sealed node changes chain ends the sealed epoch alone would
// give; the per-snapshot memo must see it.
func TestSnapLensTailRedirectOnSealedNode(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://o.example/", "O", "", event.TransTyped, t0),
		visit(1, "http://m.example/", "M", "http://o.example/", event.TransLink, t0.Add(time.Second)),
	)
	s.ForceReseal()
	s.WaitReseal()
	before := s.Snapshot()
	po, _ := before.PageByURL("http://o.example/")
	pm, _ := before.PageByURL("http://m.example/")
	vo, vm := before.VisitsOfPage(po.ID)[0], before.VisitsOfPage(pm.ID)[0]
	if got := before.Lens().Out(vo); !sameIDs(got, []NodeID{vm}) {
		t.Fatalf("before: lens Out(o) = %v, want [%d]", got, vm)
	}

	mustApply(t, s, visit(1, "http://z.example/", "Z", "http://m.example/", event.TransRedirectTemporary, t0.Add(2*time.Second)))
	after := s.Snapshot()
	if vm > after.sealed.maxID || redirectTarget(after.tailOut[vm]) == 0 {
		t.Fatal("fixture did not add a tail redirect to a sealed node")
	}
	pz, _ := after.PageByURL("http://z.example/")
	vz := after.VisitsOfPage(pz.ID)[0]
	if got := after.Lens().Out(vo); !sameIDs(got, []NodeID{vz}) {
		t.Fatalf("after: lens Out(o) = %v, want [%d]", got, vz)
	}
	if got := after.Lens().In(vz); !sameIDs(got, []NodeID{vo}) {
		t.Fatalf("after: lens In(z) = %v, want [%d]", got, vo)
	}
	// The older snapshot's memo is its own and still answers for it.
	if got := before.Lens().Out(vo); !sameIDs(got, []NodeID{vm}) {
		t.Fatalf("before, again: lens Out(o) = %v, want [%d]", got, vm)
	}
	lensMustMatchNaive(t, after, rand.New(rand.NewSource(2)))
}

// TestSnapLensConcurrentMemo: goroutines sharing one lens fill its memo
// concurrently (run under -race) and each sees the reference answers.
func TestSnapLensConcurrentMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := openStore(t, t.TempDir())
	defer s.Close()
	feedRedirectChain(t, s, "c", t0)
	feedRandomLinks(t, s, rng, 400, 12, t0.Add(time.Hour))
	sn := s.Snapshot()
	ref := naiveLens{sn}
	n := int(sn.MaxNodeID())
	wantOut := make([][]NodeID, n+1)
	wantIn := make([][]NodeID, n+1)
	for id := 1; id <= n; id++ {
		wantOut[id], wantIn[id] = ref.Out(NodeID(id)), ref.In(NodeID(id))
	}
	lens := sn.Lens()
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		order := rng.Perm(n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, i := range order {
				id := NodeID(i + 1)
				if !sameIDs(lens.Out(id), wantOut[id]) || !sameIDs(lens.In(id), wantIn[id]) {
					errs <- fmt.Sprintf("lens disagrees with the reference at node %d", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSnapshotFieldAccessors: KindPage and OpenClose agree with NodeByID
// on every ID (gaps and out-of-range included) for slab-backed,
// column-backed (mapped checkpoint) and chained snapshots.
func TestSnapshotFieldAccessors(t *testing.T) {
	check := func(t *testing.T, sn *Snapshot) {
		t.Helper()
		for id := NodeID(0); id <= sn.MaxNodeID()+2; id++ {
			n, ok := sn.NodeByID(id)
			kind, page, kok := sn.KindPage(id)
			if kok != ok || kind != n.Kind || page != n.Page {
				t.Fatalf("KindPage(%d) = %v, %d, %v; NodeByID gives %v, %d, %v", id, kind, page, kok, n.Kind, n.Page, ok)
			}
			open, close, ook := sn.OpenClose(id)
			if ook != ok || !open.Equal(n.Open) || !close.Equal(n.Close) || open.IsZero() != n.Open.IsZero() || close.IsZero() != n.Close.IsZero() {
				t.Fatalf("OpenClose(%d) = %v, %v, %v; NodeByID gives %v, %v, %v", id, open, close, ook, n.Open, n.Close, ok)
			}
		}
	}
	dir := t.TempDir()
	s := openStore(t, dir)
	feedMixed(t, s, 120, t0)
	if _, err := s.ExpireBefore(t0.Add(20 * time.Minute)); err != nil {
		t.Fatal(err) // leaves retention gaps in the ID space
	}
	feedMixed(t, s, 60, t0.Add(200*time.Minute))
	s.ForceReseal()
	s.WaitReseal()
	feedMixed(t, s, 30, t0.Add(400*time.Minute))
	t.Run("slab", func(t *testing.T) { check(t, s.Snapshot()) })
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	columns := func(t *testing.T) {
		t.Helper()
		sn := s2.Snapshot()
		if sn.sealed == nil || sn.sealed.cols == nil {
			t.Fatal("snapshot is not column-backed")
		}
		check(t, sn)
	}
	t.Run("columns", columns)
	// New visits close visits sealed in the columns, so the tail
	// overrides them.
	feedMixed(t, s2, 30, t0.Add(600*time.Minute))
	t.Run("columns+tail", columns)
}

// TestSnapLensRedirectCycleBranching: with edges carrying versions, 550
// visits over 12 URLs make every page spliced, each with about thirty
// spliced in-edges from ten others. In must stay cheap there: it
// expands a bounded number of spliced nodes, each once, instead of
// every path through them.
func TestSnapLensRedirectCycleBranching(t *testing.T) {
	s, err := OpenWith(t.TempDir(), Options{Mode: VersionEdges})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	feedRandomLinks(t, s, rng, 550, 12, t0)
	start := time.Now()
	lensMustMatchNaive(t, s.Snapshot(), rng)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("lens over a branching redirect cycle took %v, want < 2s", d)
	}
}

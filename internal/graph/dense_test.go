package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// hideBounded wraps a graph so algorithms take the map-based reference
// path even when the underlying graph knows its max ID.
type hideBounded struct{ g Graph }

func (h hideBounded) Out(n NodeID) []NodeID { return h.g.Out(n) }
func (h hideBounded) In(n NodeID) []NodeID  { return h.g.In(n) }

// TestExpandArenaMatchesReference: with the node cap not binding, the
// arena expansion must produce the same node set and the same scores
// (within fp accumulation-order noise) as the map reference.
func TestExpandArenaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, ids := benchGraph(2000, 3, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		seeds := make(map[NodeID]float64)
		a := GetArena(int(g.MaxNodeID()) + 1)
		a.ResetExpand(a.NodeCap())
		for i := 0; i < 5; i++ {
			id := ids[rng.Intn(len(ids))]
			w := 1 + rng.Float64()
			seeds[id] = w
			a.SeedExpand(id, w)
		}
		want := refExpand(g, seeds, Undirected, 0.5, 3, 1<<30)
		ExpandArena(g, a, Undirected, 0.5, 3, 1<<30, nil)
		if a.Scores.Len() != len(want) {
			t.Fatalf("seed %d: arena scored %d nodes, reference %d", seed, a.Scores.Len(), len(want))
		}
		for _, id := range a.Scores.Keys() {
			ref, ok := want[id]
			if !ok {
				t.Fatalf("seed %d: node %d scored by arena only", seed, id)
			}
			if d := math.Abs(a.Scores.Get(id) - ref); d > 1e-12 {
				t.Fatalf("seed %d: node %d score %g, reference %g (delta %g)", seed, id, a.Scores.Get(id), ref, d)
			}
		}
		a.Release()
	}
}

// TestExpandArenaDeterministicUnderCap: when maxNodes binds (where the
// map reference was randomised by frontier iteration order), repeated
// arena expansions must agree exactly.
func TestExpandArenaDeterministicUnderCap(t *testing.T) {
	g, ids := benchGraph(3000, 4, 11)
	run := func() ([]NodeID, []float64) {
		a := GetArena(int(g.MaxNodeID()) + 1)
		defer a.Release()
		a.ResetExpand(a.NodeCap())
		for i := 0; i < 4; i++ {
			a.SeedExpand(ids[500*i+7], 1)
		}
		ExpandArena(g, a, Undirected, 0.5, 4, 200, nil)
		keys := append([]NodeID(nil), a.Scores.Keys()...)
		vals := make([]float64, len(keys))
		for i, id := range keys {
			vals[i] = a.Scores.Get(id)
		}
		return keys, vals
	}
	k1, v1 := run()
	for trial := 0; trial < 5; trial++ {
		k2, v2 := run()
		if len(k1) != len(k2) {
			t.Fatalf("trial %d: %d nodes vs %d", trial, len(k2), len(k1))
		}
		for i := range k1 {
			if k1[i] != k2[i] || v1[i] != v2[i] {
				t.Fatalf("trial %d: slot %d = (%d, %g), want (%d, %g)", trial, i, k2[i], v2[i], k1[i], v1[i])
			}
		}
	}
}

// TestExpandArenaParMatchesSerial: the deprecated forwarder must give
// ExpandArena's exact result whatever par it is passed.
func TestExpandArenaParMatchesSerial(t *testing.T) {
	g, ids := benchGraph(3000, 4, 5)
	want, got := GetArena(int(g.MaxNodeID())+1), GetArena(int(g.MaxNodeID())+1)
	defer want.Release()
	defer got.Release()
	for _, a := range []*Arena{want, got} {
		a.ResetExpand(a.NodeCap())
		for i := 0; i < 40; i++ {
			a.SeedExpand(ids[70*i+3], 1)
		}
	}
	ExpandArena(g, want, Undirected, 0.5, 3, 2000, nil)
	ExpandArenaPar(g, got, Undirected, 0.5, 3, 2000, 4, nil)
	if !slices.Equal(got.Scores.Keys(), want.Scores.Keys()) {
		t.Fatalf("forwarder scored %d nodes, ExpandArena %d", got.Scores.Len(), want.Scores.Len())
	}
	for _, id := range want.Scores.Keys() {
		if got.Scores.Get(id) != want.Scores.Get(id) {
			t.Fatalf("node %d: forwarder %g, ExpandArena %g", id, got.Scores.Get(id), want.Scores.Get(id))
		}
	}
}

// TestHITSArenaMatchesReference compares the index-compacted HITS with
// the map reference on random subgraphs.
func TestHITSArenaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g, ids := benchGraph(2000, 3, seed)
		sub := ids[700 : 700+150]
		wantHubs, wantAuths := refHITS(g, sub, 20, 1e-6)
		a := GetArena(int(g.MaxNodeID()) + 1)
		hubs, auths := HITSArena(g, a, sub, 20, 1e-6)
		for i, n := range sub {
			if d := math.Abs(hubs[i] - wantHubs[n]); d > 1e-12 {
				t.Fatalf("seed %d: hub(%d) = %g, reference %g", seed, n, hubs[i], wantHubs[n])
			}
			if d := math.Abs(auths[i] - wantAuths[n]); d > 1e-12 {
				t.Fatalf("seed %d: auth(%d) = %g, reference %g", seed, n, auths[i], wantAuths[n])
			}
		}
		a.Release()
	}
}

// TestBFSDenseMatchesReference: the bitset BFS must visit the same
// nodes at the same depths, in the same order, as the map BFS.
func TestBFSDenseMatchesReference(t *testing.T) {
	g, ids := benchGraph(2000, 3, 3)
	type visit struct {
		n     NodeID
		depth int
	}
	collect := func(gr Graph) []visit {
		var out []visit
		BFS(gr, []NodeID{ids[1500], ids[100]}, Undirected, func(n NodeID, depth int) bool {
			out = append(out, visit{n, depth})
			return true
		})
		return out
	}
	dense := collect(g)            // Mem is Bounded -> dense path
	ref := collect(hideBounded{g}) // wrapper -> map path
	if len(dense) != len(ref) {
		t.Fatalf("dense BFS visited %d nodes, reference %d", len(dense), len(ref))
	}
	for i := range ref {
		if dense[i] != ref[i] {
			t.Fatalf("visit %d: dense %v, reference %v", i, dense[i], ref[i])
		}
	}
}

// TestFindFirstDenseMatchesReference: identical path and found flag.
func TestFindFirstDenseMatchesReference(t *testing.T) {
	g, ids := benchGraph(2000, 2, 4)
	for _, target := range []NodeID{ids[10], ids[500], NodeID(999999)} {
		pred := func(n NodeID) bool { return n == target }
		densePath, denseOK := FindFirst(g, ids[len(ids)-1], Backward, false, pred)
		refPath, refOK := FindFirst(hideBounded{g}, ids[len(ids)-1], Backward, false, pred)
		if denseOK != refOK {
			t.Fatalf("target %d: dense found=%v, reference %v", target, denseOK, refOK)
		}
		if len(densePath) != len(refPath) {
			t.Fatalf("target %d: dense path %v, reference %v", target, densePath, refPath)
		}
		for i := range refPath {
			if densePath[i] != refPath[i] {
				t.Fatalf("target %d: path[%d] = %d, reference %d", target, i, densePath[i], refPath[i])
			}
		}
	}
}

// TestBFSOutOfBoundStart: start IDs beyond the graph's MaxNodeID (a
// node from a newer snapshot than the one being traversed) must be
// tolerated like the map path tolerates unknown IDs — visited with no
// neighbors, never an out-of-range panic on the dense slabs.
func TestBFSOutOfBoundStart(t *testing.T) {
	g, ids := benchGraph(100, 2, 9)
	huge := NodeID(1 << 40)
	var visited []NodeID
	BFS(g, []NodeID{huge, ids[5]}, Undirected, func(n NodeID, depth int) bool {
		visited = append(visited, n)
		return true
	})
	if len(visited) == 0 || visited[0] != huge {
		t.Fatalf("out-of-bound start not visited first: %v", visited[:min(len(visited), 3)])
	}
	if path, ok := FindFirst(g, huge, Backward, false, func(n NodeID) bool { return n == ids[5] }); ok {
		t.Fatalf("FindFirst from unreachable out-of-bound start found a path: %v", path)
	}
}

// TestDenseFloatsStampReuse: values from a previous generation must be
// invisible after Reset, across enough resets to exercise reuse.
func TestDenseFloatsStampReuse(t *testing.T) {
	var m DenseFloats
	for round := 0; round < 100; round++ {
		m.Reset(64)
		if m.Len() != 0 {
			t.Fatalf("round %d: Len=%d after Reset", round, m.Len())
		}
		id := NodeID(round % 64)
		if m.Has(id) || m.Get(id) != 0 {
			t.Fatalf("round %d: stale entry for %d", round, id)
		}
		m.Add(id, float64(round))
		m.Add(id, 1)
		if got := m.Get(id); got != float64(round)+1 {
			t.Fatalf("round %d: Get=%g", round, got)
		}
		m.Max(id, float64(round)+5)
		if got := m.Get(id); got != float64(round)+5 {
			t.Fatalf("round %d: Max failed, Get=%g", round, got)
		}
		// Max on an absent key with non-positive value must not register.
		m.Max(NodeID((round+1)%64), 0)
		if m.Len() != 1 {
			t.Fatalf("round %d: Max(_, 0) registered a key", round)
		}
	}
}

// TestArenaPoolCapacityClasses: arenas of different sizes round up to
// their class and are recycled within it.
func TestArenaPoolCapacityClasses(t *testing.T) {
	small := GetArena(100)
	if small.NodeCap() < 100 {
		t.Fatalf("NodeCap %d < requested 100", small.NodeCap())
	}
	big := GetArena(100000)
	if big.NodeCap() < 100000 {
		t.Fatalf("NodeCap %d < requested 100000", big.NodeCap())
	}
	if small.NodeCap() == big.NodeCap() {
		t.Fatal("small and big arenas share a capacity class")
	}
	small.Release()
	big.Release()
}

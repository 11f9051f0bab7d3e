package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// chain builds 0 -> 1 -> 2 -> ... -> n-1.
func chain(n int) *Mem {
	g := NewMem()
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

func TestBFSDepthOrder(t *testing.T) {
	g := NewMem()
	// Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	var depths []int
	var nodes []NodeID
	BFS(g, []NodeID{0}, Forward, func(n NodeID, d int) bool {
		depths = append(depths, d)
		nodes = append(nodes, n)
		return true
	})
	if len(nodes) != 4 {
		t.Fatalf("visited %d nodes, want 4", len(nodes))
	}
	if !sort.IntsAreSorted(depths) {
		t.Fatalf("depths not nondecreasing: %v", depths)
	}
	if depths[len(depths)-1] != 2 {
		t.Fatalf("node 3 depth = %d, want 2", depths[len(depths)-1])
	}
}

func TestBFSBackward(t *testing.T) {
	g := chain(5)
	got := map[NodeID]int{}
	BFS(g, []NodeID{4}, Backward, func(n NodeID, d int) bool { got[n] = d; return true })
	if len(got) != 5 {
		t.Fatalf("backward reach = %d nodes, want 5", len(got))
	}
	if got[0] != 4 {
		t.Fatalf("depth of node 0 = %d, want 4", got[0])
	}
}

func TestBFSUndirected(t *testing.T) {
	g := NewMem()
	g.AddEdge(0, 1)
	g.AddEdge(2, 1) // only reachable undirected from 0
	got := map[NodeID]int{}
	BFS(g, []NodeID{0}, Undirected, func(n NodeID, d int) bool { got[n] = d; return true })
	if len(got) != 3 {
		t.Fatalf("undirected reach = %v, want 3 nodes", got)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := chain(100)
	count := 0
	BFS(g, []NodeID{0}, Forward, func(n NodeID, d int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("visited %d, want 5", count)
	}
}

func TestBFSDuplicateStarts(t *testing.T) {
	g := chain(3)
	count := 0
	BFS(g, []NodeID{0, 0, 0}, Forward, func(n NodeID, d int) bool {
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("visited %d, want 3 (duplicate starts collapsed)", count)
	}
}

// TestReachDepthLimit: BFS is depth-ordered, so stopping at the first
// node past a depth bound yields exactly the nodes within it.
func TestReachDepthLimit(t *testing.T) {
	g := chain(10)
	got := 0
	BFS(g, []NodeID{0}, Forward, func(n NodeID, d int) bool {
		if d > 3 {
			return false
		}
		got++
		return true
	})
	if got != 4 { // depths 0..3
		t.Fatalf("reach within depth 3 = %d nodes, want 4", got)
	}
}

func TestFindFirstShortestPath(t *testing.T) {
	g := NewMem()
	// Two routes from 0 to 9: short (0->1->9) and long (0->2->3->9).
	g.AddEdge(0, 1)
	g.AddEdge(1, 9)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 9)
	path, ok := FindFirst(g, 0, Forward, false, func(n NodeID) bool { return n == 9 })
	if !ok {
		t.Fatal("target not found")
	}
	want := []NodeID{0, 1, 9}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

func TestFindFirstExcludesStartByDefault(t *testing.T) {
	g := NewMem()
	g.AddEdge(0, 1)
	// start satisfies pred, but includeStart=false must skip it.
	path, ok := FindFirst(g, 0, Forward, false, func(n NodeID) bool { return true })
	if !ok || len(path) != 2 {
		t.Fatalf("path = %v, ok=%v; want 2-node path", path, ok)
	}
	path, ok = FindFirst(g, 0, Forward, true, func(n NodeID) bool { return true })
	if !ok || len(path) != 1 || path[0] != 0 {
		t.Fatalf("includeStart path = %v, ok=%v; want [0]", path, ok)
	}
}

func TestFindFirstUnreachable(t *testing.T) {
	g := chain(3)
	if _, ok := FindFirst(g, 0, Forward, false, func(n NodeID) bool { return n == 99 }); ok {
		t.Fatal("found unreachable node")
	}
}

func TestFindFirstAncestors(t *testing.T) {
	// Download lineage shape: search -> page -> redirect -> download.
	g := NewMem()
	g.AddEdge(1, 2) // search -> page
	g.AddEdge(2, 3) // page -> redirect
	g.AddEdge(3, 4) // redirect -> download
	recognizable := map[NodeID]bool{1: true}
	path, ok := FindFirst(g, 4, Backward, false, func(n NodeID) bool { return recognizable[n] })
	if !ok {
		t.Fatal("no recognizable ancestor found")
	}
	want := []NodeID{4, 3, 2, 1}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("lineage = %v, want %v", path, want)
	}
}

func TestFindCycleReturnsRealCycle(t *testing.T) {
	g := NewMem()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1) // cycle 1 -> 2 -> 3 -> 1
	cycle := FindCycle(g, []NodeID{0, 1, 2, 3})
	if cycle == nil {
		t.Fatal("no cycle found")
	}
	if cycle[0] != cycle[len(cycle)-1] {
		t.Fatalf("cycle not closed: %v", cycle)
	}
	// Every consecutive pair must be a real edge.
	for i := 0; i+1 < len(cycle); i++ {
		found := false
		for _, m := range g.Out(cycle[i]) {
			if m == cycle[i+1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cycle %v contains non-edge %d->%d", cycle, cycle[i], cycle[i+1])
		}
	}
}

func TestIsDAG(t *testing.T) {
	g := chain(20)
	nodes := make([]NodeID, 20)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	if FindCycle(g, nodes) != nil {
		t.Fatal("chain reported cyclic")
	}
	g.AddEdge(19, 0)
	if FindCycle(g, nodes) == nil {
		t.Fatal("cycle not reported")
	}
}

// TestIsDAGPropertyRandomDAGs: generating edges only from lower to higher
// IDs guarantees acyclicity; FindCycle must agree, and adding one back edge
// along a path must break it.
func TestIsDAGPropertyRandomDAGs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := NewMem()
		nodes := make([]NodeID, n)
		for i := range nodes {
			nodes[i] = NodeID(i)
			g.AddNode(NodeID(i))
		}
		edges := rng.Intn(3 * n)
		for i := 0; i < edges; i++ {
			u := rng.Intn(n - 1)
			v := u + 1 + rng.Intn(n-u-1)
			g.AddEdge(NodeID(u), NodeID(v))
		}
		if FindCycle(g, nodes) != nil {
			return false
		}
		// A forward edge u->v exists iff edges>0; add the reverse of a
		// 2-node reachable pair to force a cycle.
		if edges > 0 {
			// Find any edge and reverse it on top (u->v and v->u).
			for u := 0; u < n; u++ {
				outs := g.Out(NodeID(u))
				if len(outs) > 0 {
					g.AddEdge(outs[0], NodeID(u))
					return FindCycle(g, nodes) != nil
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestHITSRanksAuthority(t *testing.T) {
	// Classic hub/authority structure: hubs 0,1,2 all point to authority
	// 10; only hub 0 points to 11.
	g := NewMem()
	for _, h := range []NodeID{0, 1, 2} {
		g.AddEdge(h, 10)
	}
	g.AddEdge(0, 11)
	nodes := []NodeID{0, 1, 2, 10, 11}
	a := GetArena(int(g.MaxNodeID()) + 1)
	defer a.Release()
	hubs, auths := HITSArena(g, a, nodes, 50, 1e-9)
	if auths[3] <= auths[4] {
		t.Fatalf("auth(10)=%f <= auth(11)=%f", auths[3], auths[4])
	}
	if hubs[0] <= hubs[1] {
		t.Fatalf("hub(0)=%f <= hub(1)=%f; 0 points at more authorities", hubs[0], hubs[1])
	}
}

func TestHITSEmpty(t *testing.T) {
	a := GetArena(1)
	defer a.Release()
	hubs, auths := HITSArena(NewMem(), a, nil, 10, 1e-9)
	if len(hubs) != 0 || len(auths) != 0 {
		t.Fatal("nonempty scores for empty node set")
	}
}

// expand runs ExpandArena from seeds and returns the scored
// neighborhood as a map.
func expand(g *Mem, seeds map[NodeID]float64, dir Dir, decay float64, maxDepth, maxNodes int, stop func() bool) map[NodeID]float64 {
	a := GetArena(int(g.MaxNodeID()) + 1)
	defer a.Release()
	a.ResetExpand(a.NodeCap())
	for n, w := range seeds {
		a.SeedExpand(n, w)
	}
	ExpandArena(g, a, dir, decay, maxDepth, maxNodes, stop)
	scores := make(map[NodeID]float64, a.Scores.Len())
	for _, n := range a.Scores.Keys() {
		scores[n] = a.Scores.Get(n)
	}
	return scores
}

func TestExpandDecay(t *testing.T) {
	g := chain(4) // 0->1->2->3
	scores := expand(g, map[NodeID]float64{0: 1.0}, Forward, 0.5, 3, 100, nil)
	want := map[NodeID]float64{0: 1.0, 1: 0.5, 2: 0.25, 3: 0.125}
	for n, w := range want {
		if got := scores[n]; got != w {
			t.Fatalf("score[%d] = %f, want %f", n, got, w)
		}
	}
}

func TestExpandAccumulates(t *testing.T) {
	// Two seeds converge on node 2: contributions add.
	g := NewMem()
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	scores := expand(g, map[NodeID]float64{0: 1, 1: 1}, Forward, 0.5, 1, 100, nil)
	if scores[2] != 1.0 { // 0.5 + 0.5
		t.Fatalf("score[2] = %f, want 1.0", scores[2])
	}
}

func TestExpandMaxDepth(t *testing.T) {
	g := chain(10)
	scores := expand(g, map[NodeID]float64{0: 1}, Forward, 0.9, 2, 100, nil)
	if _, ok := scores[3]; ok {
		t.Fatal("node beyond maxDepth scored")
	}
	if _, ok := scores[2]; !ok {
		t.Fatal("node at maxDepth missing")
	}
}

func TestExpandMaxNodes(t *testing.T) {
	// Star: seed points at 50 children; cap at 10 nodes total.
	g := NewMem()
	for i := 1; i <= 50; i++ {
		g.AddEdge(0, NodeID(i))
	}
	scores := expand(g, map[NodeID]float64{0: 1}, Forward, 0.5, 1, 10, nil)
	if len(scores) > 10 {
		t.Fatalf("scored %d nodes, cap was 10", len(scores))
	}
}

func TestExpandStopCallback(t *testing.T) {
	g := chain(100)
	calls := 0
	scores := expand(g, map[NodeID]float64{0: 1}, Forward, 0.99, 99, 1000, func() bool {
		calls++
		return calls > 3
	})
	// Stopped after ~3 rounds: far fewer than 100 nodes scored.
	if len(scores) > 10 {
		t.Fatalf("stop callback ignored: %d nodes scored", len(scores))
	}
}

func TestExpandBackward(t *testing.T) {
	g := chain(4)
	scores := expand(g, map[NodeID]float64{3: 1}, Backward, 0.5, 3, 100, nil)
	if scores[0] != 0.125 {
		t.Fatalf("backward score[0] = %f, want 0.125", scores[0])
	}
}

package graph

import (
	"math/rand"
	"testing"
)

// benchGraph builds a layered random DAG shaped like a browsing history:
// ~25k nodes in time order with edges pointing forward.
func benchGraph(nodes, outDeg int, seed int64) (*Mem, []NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := NewMem()
	ids := make([]NodeID, nodes)
	for i := 0; i < nodes; i++ {
		ids[i] = NodeID(i)
		g.AddNode(NodeID(i))
		for d := 0; d < outDeg; d++ {
			if i == 0 {
				break
			}
			// Edge from an earlier node (mostly recent, like referrers).
			back := 1 + rng.Intn(min(i, 50))
			g.AddEdge(NodeID(i-back), NodeID(i))
		}
	}
	return g, ids
}

func BenchmarkBFSFullHistory(b *testing.B) {
	g, _ := benchGraph(25000, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		BFS(g, []NodeID{0}, Forward, func(NodeID, int) bool {
			count++
			return true
		})
	}
}

func BenchmarkFindFirstAncestor(b *testing.B) {
	g, ids := benchGraph(25000, 2, 2)
	target := ids[10]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FindFirst(g, ids[len(ids)-1], Backward, false, func(n NodeID) bool { return n == target })
	}
}

func BenchmarkExpandArenaDepth3(b *testing.B) {
	g, ids := benchGraph(25000, 3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := GetArena(int(g.MaxNodeID()) + 1)
		a.ResetExpand(a.NodeCap())
		a.SeedExpand(ids[20000], 1)
		a.SeedExpand(ids[20100], 1)
		a.SeedExpand(ids[20200], 1)
		ExpandArena(g, a, Undirected, 0.5, 3, 5000, nil)
		a.Release()
	}
}

func BenchmarkHITSArena100Nodes(b *testing.B) {
	g, ids := benchGraph(25000, 3, 4)
	sub := ids[12000:12100]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := GetArena(int(g.MaxNodeID()) + 1)
		HITSArena(g, a, sub, 20, 1e-6)
		a.Release()
	}
}

func BenchmarkFindCycle(b *testing.B) {
	g, ids := benchGraph(25000, 2, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if FindCycle(g, ids) != nil {
			b.Fatal("cyclic")
		}
	}
}

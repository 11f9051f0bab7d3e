// Package graph provides the graph algorithms the provenance queries are
// built from: breadth-first traversal, shortest provenance paths, cycle
// detection, weighted neighborhood expansion and Kleinberg's HITS (the
// last two on the dense scratch arenas of dense.go).
//
// The algorithms operate on the minimal Graph interface so they can run
// over the provenance store or over in-memory test fixtures without
// copying.
package graph

// NodeID identifies a node. The provenance store and the synthetic web
// both use dense small integers, which several algorithms exploit by
// sizing maps up front.
type NodeID uint64

// Graph is a directed graph with efficient access to successors and
// predecessors. Implementations may return shared slices; callers must
// not modify them.
type Graph interface {
	// Out returns the successors of n (edges n -> m).
	Out(n NodeID) []NodeID
	// In returns the predecessors of n (edges m -> n).
	In(n NodeID) []NodeID
}

// Dir selects the traversal direction relative to edge orientation.
type Dir int

const (
	// Forward follows edges from source to target (descendants).
	Forward Dir = iota
	// Backward follows edges from target to source (ancestors).
	Backward
	// Undirected follows edges both ways.
	Undirected
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case Forward:
		return "forward"
	case Backward:
		return "backward"
	case Undirected:
		return "undirected"
	default:
		return "invalid"
	}
}

// neighbors returns the neighbor set of n in direction d, appending to
// buf to avoid allocation in hot loops. Graphs that materialise
// adjacency on the fly (Appender) write straight into buf; plain
// graphs take the direct switch (adapting through plainAppender here
// would box an interface value per call).
func neighbors(g Graph, n NodeID, d Dir, buf []NodeID) []NodeID {
	buf = buf[:0]
	if ap, ok := g.(Appender); ok {
		return appendNeighbors(ap, n, d, buf)
	}
	switch d {
	case Forward:
		buf = append(buf, g.Out(n)...)
	case Backward:
		buf = append(buf, g.In(n)...)
	case Undirected:
		buf = append(buf, g.Out(n)...)
		buf = append(buf, g.In(n)...)
	}
	return buf
}

// BFS performs a breadth-first traversal from the start set in direction
// dir. The visit callback receives each discovered node (including the
// start nodes, at depth 0) exactly once; returning false stops the whole
// traversal. BFS visits nodes in nondecreasing depth order.
func BFS(g Graph, start []NodeID, dir Dir, visit func(n NodeID, depth int) bool) {
	if b, ok := g.(Bounded); ok && allWithin(start, b.MaxNodeID()) {
		// Dense node IDs: bitset visited set and pooled queue instead of
		// a per-traversal map. Start IDs beyond the graph's bound (e.g. a
		// node from a newer snapshot than the one being queried) fall
		// through to the map path, which tolerates unknown IDs.
		bfsDense(g, b.MaxNodeID(), start, dir, visit)
		return
	}
	type item struct {
		n     NodeID
		depth int
	}
	seen := make(map[NodeID]bool, len(start)*4)
	queue := make([]item, 0, len(start))
	for _, s := range start {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue, item{s, 0})
	}
	var buf []NodeID
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if !visit(it.n, it.depth) {
			return
		}
		buf = neighbors(g, it.n, dir, buf)
		for _, m := range buf {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, item{m, it.depth + 1})
			}
		}
	}
}

// FindFirst runs a BFS from start in direction dir and returns the
// shortest path (as a node sequence beginning with start) to the nearest
// node satisfying pred, excluding start itself unless includeStart is
// set. It returns ok=false if no such node is reachable.
//
// This is exactly the paper's download-lineage query: "find the first
// ancestor of this file that the user is likely to recognize".
func FindFirst(g Graph, start NodeID, dir Dir, includeStart bool, pred func(NodeID) bool) ([]NodeID, bool) {
	if b, ok := g.(Bounded); ok && start <= b.MaxNodeID() {
		// Dense node IDs: parent slab + pooled arena instead of the
		// parent map and per-node neighbor allocations. An out-of-bound
		// start falls through to the map path (see BFS).
		return findFirstDense(g, b.MaxNodeID(), start, dir, includeStart, pred)
	}
	parent := map[NodeID]NodeID{start: start}
	var found NodeID
	ok := false
	BFS(g, []NodeID{start}, dir, func(n NodeID, depth int) bool {
		if (includeStart || n != start) && pred(n) {
			found, ok = n, true
			return false
		}
		// Record parents of the frontier we are about to enqueue. BFS
		// doesn't expose that hook, so reconstruct here instead: mark
		// children as we expand n.
		for _, m := range neighborsAlloc(g, n, dir) {
			if _, dup := parent[m]; !dup {
				parent[m] = n
			}
		}
		return true
	})
	if !ok {
		return nil, false
	}
	// Reconstruct the path from found back to start.
	var rev []NodeID
	for n := found; ; n = parent[n] {
		rev = append(rev, n)
		if n == parent[n] {
			break
		}
	}
	path := make([]NodeID, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path, true
}

func neighborsAlloc(g Graph, n NodeID, d Dir) []NodeID {
	return neighbors(g, n, d, nil)
}

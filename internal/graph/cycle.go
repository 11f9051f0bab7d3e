package graph

// FindCycle returns one directed cycle within the induced subgraph over
// nodes, or nil if the subgraph is acyclic. The cycle is returned as a
// node sequence c0 -> c1 -> ... -> c0 (first node repeated at the end).
// Provenance is acyclic by definition (§3.1 of the paper), so a cycle in
// the provenance store is an invariant violation.
func FindCycle(g Graph, nodes []NodeID) []NodeID {
	const (
		white = 0 // unvisited
		gray  = 1 // on stack
		black = 2 // done
	)
	inSet := make(map[NodeID]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	color := make(map[NodeID]int, len(nodes))
	parent := make(map[NodeID]NodeID, len(nodes))

	// Iterative DFS with an explicit stack of (node, next-child-index).
	type frame struct {
		n    NodeID
		succ []NodeID
		i    int
	}
	for _, root := range nodes {
		if color[root] != white {
			continue
		}
		stack := []frame{{n: root, succ: g.Out(root)}}
		color[root] = gray
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			advanced := false
			for top.i < len(top.succ) {
				m := top.succ[top.i]
				top.i++
				if !inSet[m] {
					continue
				}
				switch color[m] {
				case gray:
					// Found a cycle: m .. top.n -> m.
					cycle := []NodeID{m}
					for n := top.n; n != m; n = parent[n] {
						cycle = append(cycle, n)
					}
					// Reverse into forward edge order and close the loop.
					for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return append(cycle, m)
				case white:
					color[m] = gray
					parent[m] = top.n
					stack = append(stack, frame{n: m, succ: g.Out(m)})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced && top.i >= len(top.succ) {
				color[top.n] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

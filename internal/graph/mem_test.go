package graph

import "math"

// Mem is the adjacency-list test fixture: a mutable Graph with dense
// small IDs, so it is Bounded and takes the dense traversal paths.
type Mem struct {
	out, in map[NodeID][]NodeID
	max     NodeID
}

func NewMem() *Mem {
	return &Mem{out: make(map[NodeID][]NodeID), in: make(map[NodeID][]NodeID)}
}

// AddEdge inserts the directed edge u -> v. Parallel edges are kept.
func (m *Mem) AddEdge(u, v NodeID) {
	m.out[u] = append(m.out[u], v)
	m.in[v] = append(m.in[v], u)
	m.max = max(m.max, u, v)
}

// AddNode ensures n counts toward MaxNodeID even with no edges.
func (m *Mem) AddNode(n NodeID) { m.max = max(m.max, n) }

func (m *Mem) MaxNodeID() NodeID     { return m.max }
func (m *Mem) Out(n NodeID) []NodeID { return m.out[n] }
func (m *Mem) In(n NodeID) []NodeID  { return m.in[n] }

// refExpand is the map-based neighborhood expansion ExpandArena
// replaced, kept as its reference. Where maxNodes binds the two differ:
// map iteration order decides which nodes clear the cap here.
func refExpand(g Graph, seeds map[NodeID]float64, dir Dir, decay float64, maxDepth, maxNodes int) map[NodeID]float64 {
	scores := make(map[NodeID]float64, len(seeds))
	frontier := make(map[NodeID]float64, len(seeds))
	for n, w := range seeds {
		scores[n], frontier[n] = w, w
	}
	for depth := 1; depth <= maxDepth && len(frontier) > 0; depth++ {
		next := make(map[NodeID]float64)
		for n, w := range frontier {
			if w*decay == 0 {
				continue
			}
			for _, m := range neighborsAlloc(g, n, dir) {
				if _, known := scores[m]; !known && len(scores)+len(next) >= maxNodes {
					continue
				}
				next[m] += w * decay
			}
		}
		for m, w := range next {
			scores[m] += w
		}
		frontier = next
	}
	return scores
}

// refHITS is the map-based HITS HITSArena replaced, kept as its
// reference: same update schedule, normalisation and convergence rule.
func refHITS(g Graph, nodes []NodeID, iters int, tol float64) (hubs, auths map[NodeID]float64) {
	inSet := make(map[NodeID]bool, len(nodes))
	hubs = make(map[NodeID]float64, len(nodes))
	auths = make(map[NodeID]float64, len(nodes))
	prev := make(map[NodeID]float64, len(nodes))
	for _, n := range nodes {
		inSet[n], hubs[n], auths[n] = true, 1, 1
	}
	// update sets dst(n) to the sum of src over n's in-set neighbors,
	// L2-normalised.
	update := func(dst, src map[NodeID]float64, nbrs func(NodeID) []NodeID) {
		norm := 0.0
		for _, n := range nodes {
			sum := 0.0
			for _, m := range nbrs(n) {
				if inSet[m] {
					sum += src[m]
				}
			}
			dst[n] = sum
			norm += sum * sum
		}
		if norm = math.Sqrt(norm); norm > 0 {
			for n := range dst {
				dst[n] /= norm
			}
		}
	}
	for it := 0; it < iters; it++ {
		update(auths, hubs, g.In)
		update(hubs, auths, g.Out)
		delta := 0.0
		for n, h := range hubs {
			delta += (h - prev[n]) * (h - prev[n])
			prev[n] = h
		}
		if it > 0 && math.Sqrt(delta) < tol {
			break
		}
	}
	return hubs, auths
}

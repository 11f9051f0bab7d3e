package graph

import (
	"math"
	"math/bits"
	"sync"
)

// This file is the dense scratch-arena layer of the query hot path.
//
// Node IDs are dense small integers (the provenance store allocates them
// from 1 without gaps), so every per-query working set that the
// algorithms in this package used to keep in a map[NodeID]T fits in a
// flat slab indexed by NodeID. Slabs are epoch-stamped: instead of
// clearing O(maxID) memory per query, each slot carries a generation
// stamp and a Reset is one counter bump. Arenas are recycled through
// sync.Pools keyed by capacity class (power-of-two slab size), so a
// steady stream of queries against a ~60k-node history allocates nothing
// in steady state and queries against differently-sized histories never
// share (or bloat) each other's slabs.
//
// The layout borrows the lesson of block-based fast marching (and of the
// CSR pack in the sealed epoch): replacing heap/hash structures with
// contiguous arrays wins an order of magnitude on exactly this
// dense-integer workload.

// Bounded is implemented by graphs that know their highest node ID.
// Algorithms in this package use it to switch from map-based visited
// sets to dense bitsets and stamp slabs.
type Bounded interface {
	MaxNodeID() NodeID
}

// Appender is implemented by graphs that can write a node's neighbors
// into a caller-provided buffer. Implementations that materialise
// adjacency on the fly (the provenance lens) satisfy it to keep hot
// traversals allocation-free; plain Graphs are adapted automatically.
type Appender interface {
	// AppendOut appends n's successors to buf and returns it.
	AppendOut(n NodeID, buf []NodeID) []NodeID
	// AppendIn appends n's predecessors to buf and returns it.
	AppendIn(n NodeID, buf []NodeID) []NodeID
}

// plainAppender adapts a Graph whose Out/In return shared slices.
type plainAppender struct{ g Graph }

func (p plainAppender) AppendOut(n NodeID, buf []NodeID) []NodeID {
	return append(buf, p.g.Out(n)...)
}

func (p plainAppender) AppendIn(n NodeID, buf []NodeID) []NodeID {
	return append(buf, p.g.In(n)...)
}

// appenderOf returns g's Appender form, adapting when necessary. Hot
// loops hoist this so the per-neighbor cost is one interface call, not
// an extra type assertion.
func appenderOf(g Graph) Appender {
	if ap, ok := g.(Appender); ok {
		return ap
	}
	return plainAppender{g}
}

// appendNeighbors writes n's neighbors in direction d into buf.
func appendNeighbors(ap Appender, n NodeID, d Dir, buf []NodeID) []NodeID {
	switch d {
	case Forward:
		return ap.AppendOut(n, buf)
	case Backward:
		return ap.AppendIn(n, buf)
	case Undirected:
		return ap.AppendIn(n, ap.AppendOut(n, buf))
	}
	return buf
}

// ---- dense primitives ----

// DenseFloats is a map[NodeID]float64 on a flat slab: a value array and
// a generation-stamp array indexed by NodeID, plus the touched-key list
// in insertion order. Reset is O(1) (a stamp bump), membership is one
// array load, and iteration (Keys) is deterministic — unlike the map it
// replaces, whose range order changed run to run.
type DenseFloats struct {
	vals  []float64
	stamp []uint32
	gen   uint32
	keys  []NodeID
}

// Reset prepares the slab for node IDs in [0, n), re-slabbing if the
// current capacity is smaller, and forgets all entries.
func (m *DenseFloats) Reset(n int) {
	if len(m.vals) < n {
		m.vals = make([]float64, n)
		m.stamp = make([]uint32, n)
		m.gen = 0
	}
	m.gen++
	if m.gen == 0 { // stamp wraparound: clear and restart
		clear(m.stamp)
		m.gen = 1
	}
	m.keys = m.keys[:0]
}

// Has reports whether id has been Set/Added since the last Reset.
func (m *DenseFloats) Has(id NodeID) bool { return m.stamp[id] == m.gen }

// Get returns id's value, or 0 if absent (map zero-value semantics).
func (m *DenseFloats) Get(id NodeID) float64 {
	if m.stamp[id] != m.gen {
		return 0
	}
	return m.vals[id]
}

// Set assigns id's value, first-touch registering it as a key.
func (m *DenseFloats) Set(id NodeID, v float64) {
	if m.stamp[id] != m.gen {
		m.stamp[id] = m.gen
		m.keys = append(m.keys, id)
	}
	m.vals[id] = v
}

// Add accumulates v into id's value.
func (m *DenseFloats) Add(id NodeID, v float64) {
	if m.stamp[id] != m.gen {
		m.stamp[id] = m.gen
		m.keys = append(m.keys, id)
		m.vals[id] = v
		return
	}
	m.vals[id] += v
}

// Max raises id's value to v if v is larger (absent counts as 0, so a
// non-positive v on an absent key does not register it — matching the
// `if v > m[id]` idiom on the map this replaces).
func (m *DenseFloats) Max(id NodeID, v float64) {
	if m.stamp[id] != m.gen {
		if v > 0 {
			m.Set(id, v)
		}
		return
	}
	if v > m.vals[id] {
		m.vals[id] = v
	}
}

// Len returns the number of live entries.
func (m *DenseFloats) Len() int { return len(m.keys) }

// Keys returns the live keys in insertion order. The slice is owned by
// the DenseFloats and valid until the next Reset.
func (m *DenseFloats) Keys() []NodeID { return m.keys }

// DenseIndex maps NodeID -> small int on a stamp slab; it is the
// index-compaction table HITS uses to address sub[i] slices by node.
type DenseIndex struct {
	idx   []int32
	stamp []uint32
	gen   uint32
}

// Reset prepares the index for node IDs in [0, n).
func (m *DenseIndex) Reset(n int) {
	if len(m.idx) < n {
		m.idx = make([]int32, n)
		m.stamp = make([]uint32, n)
		m.gen = 0
	}
	m.gen++
	if m.gen == 0 {
		clear(m.stamp)
		m.gen = 1
	}
}

// Put records id -> i.
func (m *DenseIndex) Put(id NodeID, i int32) {
	m.stamp[id] = m.gen
	m.idx[id] = i
}

// Lookup returns id's index and whether it is present.
func (m *DenseIndex) Lookup(id NodeID) (int32, bool) {
	if m.stamp[id] != m.gen {
		return 0, false
	}
	return m.idx[id], true
}

// Bitset is a dense visited set. Unlike the stamp slabs it clears on
// Reset (one memclr of n/64 words — cheaper than stamping for the
// one-bit case).
type Bitset struct {
	words []uint64
}

// Reset clears the set and sizes it for IDs in [0, n).
func (b *Bitset) Reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	clear(b.words)
}

// Has reports whether id is in the set.
func (b *Bitset) Has(id NodeID) bool {
	return b.words[id>>6]&(1<<(id&63)) != 0
}

// TrySet inserts id, reporting whether it was newly inserted.
func (b *Bitset) TrySet(id NodeID) bool {
	w, m := id>>6, uint64(1)<<(id&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	return true
}

// ---- the arena ----

// Arena bundles every dense slab one query execution needs: expansion
// score and frontier slabs, the query layer's page-fold slabs, the HITS
// compaction index and score slices, a visited bitset, and traversal
// buffers. The query layer acquires one per Run (sized to the pinned
// snapshot's MaxNodeID, so pinned Views behave identically no matter
// what the live store has grown to) and releases it when the Run
// finishes.
type Arena struct {
	n     int // slab size: max node ID + 1
	class int // pool capacity class (slabs sized 1 << class)

	// Scores accumulates expansion weights by node.
	Scores DenseFloats
	// PageA and PageB are the query layer's page-keyed slabs (text
	// scores and folded provenance scores).
	PageA DenseFloats
	PageB DenseFloats
	// Idx is the node -> compact-index table (HITS membership).
	Idx DenseIndex
	// Seen is the visited bitset for BFS-shaped traversals.
	Seen Bitset

	frontA, frontB    DenseFloats
	nbuf              []NodeID
	queue             []NodeID
	parent            []NodeID // parent slab for path reconstruction
	parentStamp       []uint32
	parentGen         uint32
	SubBuf            []NodeID // caller-reusable node list (HITS subgraph)
	hubs, auths, prev []float64
}

// NodeCap returns the slab size the arena is currently sized for
// (max node ID + 1).
func (a *Arena) NodeCap() int { return a.n }

// arenaPools holds one free list per capacity class, so a 2^16-slab
// arena is never handed to (or bloated by) a 2^20-node history.
var arenaPools [64]sync.Pool

// GetArena returns a pooled arena sized for node IDs in [0, n). Release
// it when the query finishes.
func GetArena(n int) *Arena {
	if n < 1 {
		n = 1
	}
	class := bits.Len(uint(n - 1))
	a, _ := arenaPools[class].Get().(*Arena)
	if a == nil {
		a = &Arena{class: class}
	}
	a.n = 1 << class
	return a
}

// Release returns the arena to its capacity-class pool. The caller must
// not use the arena (or any slice obtained from it) afterwards.
func (a *Arena) Release() {
	arenaPools[a.class].Put(a)
}

// resetParents prepares the parent slab (stamped, like DenseFloats).
func (a *Arena) resetParents() {
	if len(a.parent) < a.n {
		a.parent = make([]NodeID, a.n)
		a.parentStamp = make([]uint32, a.n)
		a.parentGen = 0
	}
	a.parentGen++
	if a.parentGen == 0 {
		clear(a.parentStamp)
		a.parentGen = 1
	}
}

func (a *Arena) setParent(id, par NodeID) bool {
	if a.parentStamp[id] == a.parentGen {
		return false
	}
	a.parentStamp[id] = a.parentGen
	a.parent[id] = par
	return true
}

func (a *Arena) parentOf(id NodeID) (NodeID, bool) {
	if a.parentStamp[id] != a.parentGen {
		return 0, false
	}
	return a.parent[id], true
}

// ---- arena-based algorithms ----

// ResetExpand prepares the arena for seeding an expansion over node IDs
// in [0, n). Seeds go in via SeedExpand; ExpandArena then runs the
// rounds.
func (a *Arena) ResetExpand(n int) {
	a.Scores.Reset(n)
	a.frontA.Reset(n)
}

// SeedExpand loads one seed with the given weight (last write wins,
// like assignment into the seed map it replaces).
func (a *Arena) SeedExpand(id NodeID, w float64) {
	a.Scores.Set(id, w)
	a.frontA.Set(id, w)
}

// ExpandArena performs weighted neighborhood expansion on the arena's
// dense slabs. Seeds must have been loaded with ResetExpand/SeedExpand.
// Each round propagates every frontier node's weight, times decay, to
// its neighbors in direction dir, accumulating additively; rounds run
// breadth-first up to maxDepth, and at most maxNodes distinct nodes are
// scored (seeds included). The stop callback, if non-nil, is polled
// between rounds so callers can impose a time budget.
//
// The scored neighborhood is left in a.Scores, keys in discovery order.
// Frontiers are processed in that order too, so which nodes clear the
// maxNodes cap is deterministic for a pinned snapshot.
//
// This is the core of the paper's contextual search: "the algorithm
// performs a textual search and then reorders results by the relevance
// of their provenance neighbors", with first-generation descendants of
// a seed receiving "substantial weight".
func ExpandArena(g Graph, a *Arena, dir Dir, decay float64, maxDepth, maxNodes int, stop func() bool) {
	ap := appenderOf(g)
	scores := &a.Scores
	cur, nxt := &a.frontA, &a.frontB
	for depth := 1; depth <= maxDepth && cur.Len() > 0; depth++ {
		if stop != nil && stop() {
			break
		}
		nxt.Reset(a.n)
		for _, n := range cur.Keys() {
			propagate := cur.Get(n) * decay
			if propagate == 0 {
				continue
			}
			a.nbuf = appendNeighbors(ap, n, dir, a.nbuf[:0])
			for _, m := range a.nbuf {
				if !scores.Has(m) && scores.Len()+nxt.Len() >= maxNodes {
					continue
				}
				nxt.Add(m, propagate)
			}
		}
		for _, m := range nxt.Keys() {
			scores.Add(m, nxt.Get(m))
		}
		cur, nxt = nxt, cur
	}
}

// ExpandArenaPar is ExpandArena; par is ignored.
//
// Deprecated: intra-query parallel expansion was removed because it
// showed no end-to-end speed-up. The forwarder stays only for the
// benchmark harness's layer replay (perfbench/layers.go), which calls
// it by this name; it goes when that call does.
func ExpandArenaPar(g Graph, a *Arena, dir Dir, decay float64, maxDepth, maxNodes, par int, stop func() bool) {
	ExpandArena(g, a, dir, decay, maxDepth, maxNodes, stop)
}

// HITSArena runs Kleinberg's hubs-and-authorities algorithm on the
// subgraph induced by sub, for iters iterations or until the hub scores
// move less than tol. Node i of sub maps to slot i of the returned hub
// and authority slices, which are L2-normalised. sub's nodes must be
// distinct. The returned slices are arena-owned and valid until the
// next HITSArena call or Release; a.Idx maps NodeID -> slot for callers
// that need to look scores up by node.
//
// The paper implements contextual history search "as a graph
// neighborhood expansion algorithm, similar to web search algorithms
// such as Kleinberg's HITS"; the query layer runs it over the expanded
// neighborhood to rank it.
func HITSArena(g Graph, a *Arena, sub []NodeID, iters int, tol float64) (hubs, auths []float64) {
	ap := appenderOf(g)
	n := len(sub)
	a.Idx.Reset(a.n)
	for i, nd := range sub {
		a.Idx.Put(nd, int32(i))
	}
	if cap(a.hubs) < n {
		a.hubs = make([]float64, n)
		a.auths = make([]float64, n)
		a.prev = make([]float64, n)
	}
	hubs, auths = a.hubs[:n], a.auths[:n]
	prev := a.prev[:n]
	for i := range hubs {
		hubs[i] = 1
		auths[i] = 1
	}
	if n == 0 {
		return hubs, auths
	}
	for it := 0; it < iters; it++ {
		// Authority update: a(v) = sum of h(u) over in-set edges u->v.
		for i, nd := range sub {
			sum := 0.0
			a.nbuf = ap.AppendIn(nd, a.nbuf[:0])
			for _, u := range a.nbuf {
				if j, ok := a.Idx.Lookup(u); ok {
					sum += hubs[j]
				}
			}
			auths[i] = sum
		}
		normalizeSlice(auths)
		// Hub update: h(u) = sum of a(v) over in-set edges u->v.
		for i, nd := range sub {
			sum := 0.0
			a.nbuf = ap.AppendOut(nd, a.nbuf[:0])
			for _, v := range a.nbuf {
				if j, ok := a.Idx.Lookup(v); ok {
					sum += auths[j]
				}
			}
			hubs[i] = sum
		}
		normalizeSlice(hubs)
		if it > 0 {
			delta := 0.0
			for i, h := range hubs {
				d := h - prev[i]
				delta += d * d
			}
			if math.Sqrt(delta) < tol {
				break
			}
		}
		copy(prev, hubs)
	}
	return hubs, auths
}

func normalizeSlice(s []float64) {
	var sum float64
	for _, v := range s {
		sum += v * v
	}
	if sum == 0 {
		return
	}
	norm := math.Sqrt(sum)
	for i := range s {
		s[i] /= norm
	}
}

// allWithin reports whether every id is at most maxID — the guard for
// handing a traversal to the dense (slab-indexed) implementations.
func allWithin(ids []NodeID, maxID NodeID) bool {
	for _, id := range ids {
		if id > maxID {
			return false
		}
	}
	return true
}

// bfsScratch is the pooled state of a dense BFS: visited bitset plus
// queue storage. BFS over a Bounded graph borrows one instead of
// building a seen map per traversal.
type bfsScratch struct {
	seen   Bitset
	queue  []NodeID
	depths []int32
	nbuf   []NodeID
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// bfsDense is the flat-array BFS behind BFS for Bounded graphs:
// bitset visited set, ring-free index queue, shared neighbor buffer.
func bfsDense(g Graph, maxID NodeID, start []NodeID, dir Dir, visit func(n NodeID, depth int) bool) {
	ap := appenderOf(g)
	sc := bfsPool.Get().(*bfsScratch)
	defer bfsPool.Put(sc)
	sc.seen.Reset(int(maxID) + 1)
	queue, depths := sc.queue[:0], sc.depths[:0]
	for _, s := range start {
		if sc.seen.TrySet(s) {
			queue = append(queue, s)
			depths = append(depths, 0)
		}
	}
	for head := 0; head < len(queue); head++ {
		n, depth := queue[head], depths[head]
		if !visit(n, int(depth)) {
			break
		}
		sc.nbuf = appendNeighbors(ap, n, dir, sc.nbuf[:0])
		for _, m := range sc.nbuf {
			if sc.seen.TrySet(m) {
				queue = append(queue, m)
				depths = append(depths, depth+1)
			}
		}
	}
	sc.queue, sc.depths = queue[:0], depths[:0]
}

// findFirstDense is FindFirst for Bounded graphs: dense parent slab and
// bitset instead of the parent map, shared neighbor buffer instead of
// per-node allocation.
func findFirstDense(g Graph, maxID NodeID, start NodeID, dir Dir, includeStart bool, pred func(NodeID) bool) ([]NodeID, bool) {
	ap := appenderOf(g)
	a := GetArena(int(maxID) + 1)
	defer a.Release()
	a.resetParents()
	a.setParent(start, start)
	queue := a.queue[:0]
	queue = append(queue, start)
	var found NodeID
	ok := false
	for head := 0; head < len(queue) && !ok; head++ {
		n := queue[head]
		if (includeStart || n != start) && pred(n) {
			found, ok = n, true
			break
		}
		a.nbuf = appendNeighbors(ap, n, dir, a.nbuf[:0])
		for _, m := range a.nbuf {
			if a.setParent(m, n) {
				queue = append(queue, m)
			}
		}
	}
	a.queue = queue[:0]
	if !ok {
		return nil, false
	}
	// Reconstruct the path from found back to start.
	var rev []NodeID
	for n := found; ; {
		rev = append(rev, n)
		p, _ := a.parentOf(n)
		if p == n {
			break
		}
		n = p
	}
	path := make([]NodeID, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path, true
}

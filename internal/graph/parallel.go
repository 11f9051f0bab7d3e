package graph

import (
	"math"
	"sync"
)

// Parallel intra-query frontier expansion.
//
// The round structure of ExpandArena (and the phase structure of HITS)
// partitions cleanly: within one round every frontier node's
// contribution is computed from the previous round's state only, so the
// expensive part — neighbor gathering through the lens — fans out
// across workers over contiguous chunks of the frontier. What does NOT
// partition is the admission arithmetic: the maxNodes cap and the
// floating-point accumulation are order-sensitive, so workers never
// touch the score slabs. Each worker only RECORDS its chunk's
// (propagate, neighbors) runs; a serial merge then replays them in
// frontier order through the exact serial admission rule. The result is
// byte-identical to the serial kernel at any worker count — same
// admitted set, same key order, same float operation order.
//
// Reads during the fan-out are all safe concurrently: snapshots are
// immutable, DenseFloats reads don't mutate, and the lens memo — dense
// per-snapshot slabs shared across queries of the epoch — is read and
// filled with atomic loads and stores.

const (
	// expandParMinFrontier is the frontier size below which a round runs
	// serially — goroutine handoff costs more than the gather saves.
	expandParMinFrontier = 512
	// expandParMinChunk bounds how finely a frontier is split, so small
	// rounds don't spawn near-idle workers.
	expandParMinChunk = 256
	// hitsParMinSub is the subgraph size below which HITS phases run
	// serially.
	hitsParMinSub = 512
)

// expandRun is one frontier node's recorded contribution: its propagated
// weight and how many of the chunk's gathered neighbors belong to it.
type expandRun struct {
	propagate float64
	count     int32
}

// expandChunk is one worker's recorded output for a round.
type expandChunk struct {
	runs []expandRun
	nbrs []NodeID
}

var expandChunkPool = sync.Pool{New: func() any { return new(expandChunk) }}

// nodeBufPool recycles per-worker neighbor buffers for the HITS phases.
var nodeBufPool = sync.Pool{New: func() any { return new([]NodeID) }}

// panicRelay carries the first worker panic back to the coordinating
// goroutine. A panic on a bare worker goroutine is unrecoverable — it
// kills the whole process no matter what the request handler deferred —
// so workers trap theirs here and the coordinator re-raises it after
// Wait, on a goroutine where the daemon's per-request recover CAN
// contain it to a 500.
type panicRelay struct {
	once sync.Once
	val  any
}

// guard wraps one worker body, trapping its panic.
func (pr *panicRelay) guard(fn func()) {
	defer func() {
		if v := recover(); v != nil {
			pr.once.Do(func() { pr.val = v })
		}
	}()
	fn()
}

// rethrow re-raises the trapped panic, if any, on the caller's
// goroutine. Call after the WaitGroup settles.
func (pr *panicRelay) rethrow() {
	if pr.val != nil {
		panic(pr.val)
	}
}

// ExpandArenaPar is ExpandArena with the per-round neighbor gathering
// fanned out over up to par workers. Results are byte-identical to the
// serial kernel for any par (see the package comment above); par <= 1
// runs fully serially, and small frontiers fall back to the serial round
// regardless of par.
func ExpandArenaPar(g Graph, a *Arena, dir Dir, decay float64, maxDepth, maxNodes, par int, stop func() bool) {
	ap := appenderOf(g)
	scores := &a.Scores
	cur, nxt := &a.frontA, &a.frontB
	for depth := 1; depth <= maxDepth && cur.Len() > 0; depth++ {
		if stop != nil && stop() {
			break
		}
		nxt.Reset(a.n)
		keys := cur.Keys()
		p := par
		if max := len(keys) / expandParMinChunk; p > max {
			p = max
		}
		if p < 2 || len(keys) < expandParMinFrontier {
			// Serial round: gather and admit in one pass.
			for _, n := range keys {
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
		} else {
			// Parallel gather over contiguous frontier chunks...
			chunks := make([]*expandChunk, p)
			var wg sync.WaitGroup
			var relay panicRelay
			for w := 0; w < p; w++ {
				ck := expandChunkPool.Get().(*expandChunk)
				ck.runs, ck.nbrs = ck.runs[:0], ck.nbrs[:0]
				chunks[w] = ck
				wg.Add(1)
				go func(keys []NodeID, ck *expandChunk) {
					defer wg.Done()
					relay.guard(func() {
						for _, n := range keys {
							propagate := cur.Get(n) * decay
							if propagate == 0 {
								continue
							}
							start := len(ck.nbrs)
							ck.nbrs = appendNeighbors(ap, n, dir, ck.nbrs)
							ck.runs = append(ck.runs, expandRun{propagate: propagate, count: int32(len(ck.nbrs) - start)})
						}
					})
				}(keys[w*len(keys)/p:(w+1)*len(keys)/p], ck)
			}
			wg.Wait()
			relay.rethrow()
			// ...then a serial merge replaying the chunks in frontier
			// order through the exact serial admission rule.
			for _, ck := range chunks {
				off := 0
				for _, r := range ck.runs {
					for _, m := range ck.nbrs[off : off+int(r.count)] {
						if !scores.Has(m) && scores.Len()+nxt.Len() >= maxNodes {
							continue
						}
						nxt.Add(m, r.propagate)
					}
					off += int(r.count)
				}
				expandChunkPool.Put(ck)
			}
		}
		for _, m := range nxt.Keys() {
			scores.Add(m, nxt.Get(m))
		}
		cur, nxt = nxt, cur
	}
}

// HITSArenaPar is HITSArena with each update phase fanned out over up to
// par workers. Every slot of the hub/authority vectors is computed
// independently from the previous phase's vector, and workers write
// disjoint contiguous ranges, so parallel phases are byte-identical to
// serial ones (the per-slot neighbor sum order never changes).
// Normalisation and the convergence check stay serial. par <= 1 or a
// small subgraph runs the serial kernel.
func HITSArenaPar(g Graph, a *Arena, sub []NodeID, iters int, tol float64, par int) (hubs, auths []float64) {
	n := len(sub)
	p := par
	if max := n / expandParMinChunk; p > max {
		p = max
	}
	if p < 2 || n < hitsParMinSub {
		return HITSArena(g, a, sub, iters, tol)
	}
	ap := appenderOf(g)
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
	parPhase := func(f func(i int, nd NodeID, nbuf []NodeID) []NodeID) {
		var wg sync.WaitGroup
		var relay panicRelay
		for w := 0; w < p; w++ {
			lo, hi := w*n/p, (w+1)*n/p
			if lo == hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				relay.guard(func() {
					bp := nodeBufPool.Get().(*[]NodeID)
					nbuf := *bp
					for i := lo; i < hi; i++ {
						nbuf = f(i, sub[i], nbuf)
					}
					*bp = nbuf
					nodeBufPool.Put(bp)
				})
			}(lo, hi)
		}
		wg.Wait()
		relay.rethrow()
	}
	for it := 0; it < iters; it++ {
		// Authority update: a(v) = sum of h(u) over in-set edges u->v.
		parPhase(func(i int, nd NodeID, nbuf []NodeID) []NodeID {
			sum := 0.0
			nbuf = ap.AppendIn(nd, nbuf[:0])
			for _, u := range nbuf {
				if j, ok := a.Idx.Lookup(u); ok {
					sum += hubs[j]
				}
			}
			auths[i] = sum
			return nbuf
		})
		normalizeSlice(auths)
		// Hub update: h(u) = sum of a(v) over in-set edges u->v.
		parPhase(func(i int, nd NodeID, nbuf []NodeID) []NodeID {
			sum := 0.0
			nbuf = ap.AppendOut(nd, nbuf[:0])
			for _, v := range nbuf {
				if j, ok := a.Idx.Lookup(v); ok {
					sum += auths[j]
				}
			}
			hubs[i] = sum
			return nbuf
		})
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

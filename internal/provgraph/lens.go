package provgraph

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"browserprov/internal/graph"
)

// This file implements the redirect-splicing personalisation lens of
// §3.2 over an immutable Snapshot, in two forms that give the same rows:
//
//   - materialised: every sealed epoch carries its lens as CSR arrays
//     (lensRows), built off-lock with the epoch at reseal and persisted
//     in the checkpoint (section secV3Lens), so a cold open maps it;
//   - computed: the lens derived edge by edge from the snapshot's raw
//     adjacency, with a per-snapshot memo of redirect-chain ends.
//
// A snapshot reads a sealed node's materialised row whenever its tail
// cannot have changed it, and computes every other row.

// lensRows is a sealed epoch's lens, materialised: node n's lens
// successors are out[outOff[n]:outOff[n+1]] and its lens predecessors
// in[inOff[n]:inOff[n+1]], for n in 1..maxID. Both offset arrays have
// maxID+2 entries. The arrays may alias a mapped checkpoint.
type lensRows struct {
	outOff []uint32
	out    []NodeID
	inOff  []uint32
	in     []NodeID
}

func (r *lensRows) outRow(n NodeID) []NodeID { return r.out[r.outOff[n]:r.outOff[n+1]] }
func (r *lensRows) inRow(n NodeID) []NodeID  { return r.in[r.inOff[n]:r.inOff[n+1]] }

// lensRows returns the epoch's materialised lens. Epochs that
// flattenEpoch built, or that a checkpoint with the lens section
// loaded, already carry it; any other epoch (a checkpoint written
// without the section) builds it here, once. Safe for concurrent use.
func (ep *sealedEpoch) lensRows() *lensRows {
	ep.lensOnce.Do(func() {
		if ep.lens == nil {
			ep.lens = buildLensRows(ep)
		}
	})
	return ep.lens
}

// buildLensRows materialises an epoch's lens by running the computed
// path over the epoch alone, so both forms share one definition of a
// row. O(nodes+edges) plus the spliced-predecessor expansions; it
// yields to the scheduler like flattenEpoch, whose background
// goroutine it runs on.
func buildLensRows(ep *sealedEpoch) *lensRows {
	l := newComputedLens(&Snapshot{chain: chain{maxID: ep.maxID, t: &tail{limit: ep.maxID}, sealed: ep}})
	r := &lensRows{
		outOff: make([]uint32, ep.maxID+2),
		out:    make([]NodeID, 0, len(ep.edges)),
		inOff:  make([]uint32, ep.maxID+2),
		in:     make([]NodeID, 0, len(ep.edges)),
	}
	for id := NodeID(1); id <= ep.maxID; id++ {
		if id%flattenRowBlock == 0 {
			runtime.Gosched()
		}
		r.out = l.computeOut(id, r.out)
		r.outOff[id+1] = uint32(len(r.out))
		r.in = l.computeIn(id, r.in, nil)
		r.inOff[id+1] = uint32(len(r.in))
	}
	return r
}

// lensSectionChunks lays the lens out as the secV3Lens payload: out
// offsets, in offsets, out IDs, in IDs, little-endian. Each offset array
// is zero-padded to a multiple of 8 bytes, so the ID arrays stay 8-byte
// aligned within the page-aligned payload and load as pointer casts.
func lensSectionChunks(r *lensRows) [][]byte {
	var pad []byte
	if len(r.outOff)%2 != 0 {
		pad = make([]byte, 4)
	}
	return [][]byte{u32Bytes(r.outOff), pad, u32Bytes(r.inOff), pad, nodeIDBytes(r.out), nodeIDBytes(r.in)}
}

// decodeLensSection aliases a secV3Lens payload as the lens of an epoch
// with the given maxID and validates it: each offset array starts at 0,
// never decreases and ends at its ID array's length, the payload has no
// bytes beyond the four arrays, and every ID is in 1..maxID. A payload
// that fails any check is an error; rows it returns never index out of
// range.
func decodeLensSection(p []byte, maxID NodeID) (*lensRows, error) {
	if uint64(maxID) >= uint64(len(p)) {
		return nil, fmt.Errorf("provgraph: checkpoint lens section is %d bytes, too short for max ID %d", len(p), maxID)
	}
	n := int(maxID) + 2
	offBytes := (4*n + 7) &^ 7
	if len(p) < 2*offBytes {
		return nil, fmt.Errorf("provgraph: checkpoint lens section is %d bytes, too short for its offsets", len(p))
	}
	r := &lensRows{
		outOff: aliasU32(p[:4*n]),
		inOff:  aliasU32(p[offBytes : offBytes+4*n]),
	}
	nOut, err := lensRowsEnd(r.outOff, "out")
	if err != nil {
		return nil, err
	}
	nIn, err := lensRowsEnd(r.inOff, "in")
	if err != nil {
		return nil, err
	}
	ids := p[2*offBytes:]
	if uint64(len(ids)) != 8*(uint64(nOut)+uint64(nIn)) {
		return nil, fmt.Errorf("provgraph: checkpoint lens section holds %d ID bytes, offsets need %d",
			len(ids), 8*(uint64(nOut)+uint64(nIn)))
	}
	r.out = aliasNodeIDs(ids[:8*nOut])
	r.in = aliasNodeIDs(ids[8*nOut:])
	for _, ids := range [][]NodeID{r.out, r.in} {
		for _, id := range ids {
			if id == 0 || id > maxID {
				return nil, fmt.Errorf("provgraph: checkpoint lens ID %d out of range", id)
			}
		}
	}
	return r, nil
}

// lensRowsEnd checks that off starts at 0 and never decreases, and
// returns its last entry: the length of the ID array it indexes.
func lensRowsEnd(off []uint32, dir string) (int, error) {
	if off[0] != 0 {
		return 0, fmt.Errorf("provgraph: checkpoint lens %s offsets start at %d", dir, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return 0, fmt.Errorf("provgraph: checkpoint lens %s offset %d decreases", dir, i)
		}
	}
	return int(off[len(off)-1]), nil
}

// SnapLens is the redirect-splicing personalisation lens (§3.2) over an
// immutable snapshot: redirect chains are spliced out ("unify edges by
// ignoring nodes from which a redirect or inner content link occurs")
// and embedded/inner-content edges are dropped. Lineage queries use the
// raw snapshot; ranking queries use the lens. It takes no locks and is
// safe for concurrent use.
//
// A node is spliced when any of its out-edges is a redirect, and its
// redirect chain follows the first redirect out-edge of each node. In a
// node-versioned store a redirect is a page visit's out-edge, so only
// that visit is spliced. In an edge-versioned store (VersionEdges) the
// page is the node, so a page that has ever redirected is spliced for
// good: its lens In is its predecessors' lens In, and every lens edge
// into it lands on the end of its first redirect chain.
//
// Rows come from one of two places. A sealed node's row is copied from
// the sealed epoch's materialised lens unless the snapshot's tail could
// have changed it; every other row is computed from the raw adjacency.
// Lens decides which, once per snapshot, in O(tail):
//
//   - a snapshot chained over a pending reseal (base != nil) computes
//     every row;
//   - so does one whose tail newly splices a sealed node (gives it a
//     redirect out-edge when its sealed out-row had none), which moves
//     chain ends and spliced predecessors anywhere in the epoch;
//   - so does one whose tail adds in-edges to a sealed node that is
//     already spliced, which changes the In rows expanding through it;
//   - otherwise a sealed node computes its Out row only if its out-row
//     is in the tail, and its In row only if its in-row is.
//
// This holds because out-rows are append-only between seals: the first
// redirect of a node that already had one never changes, so sealed
// chain ends and spliced flags stay valid, and a sealed row reaches
// only sealed nodes.
//
// The computed path memoises chain ends and spliced flags in two dense
// slabs indexed by NodeID (12 B per node), filled lazily with atomic
// loads and stores so concurrent queries share them; racing queries
// resolving the same node store the same value. The slabs are per
// snapshot, never carried over from the sealed epoch, and allocated only
// when some row of the snapshot is computed.
type SnapLens struct {
	sn *Snapshot
	// rows, when non-nil, answers for sealed nodes 1..sealedMax whose
	// rows are not in the snapshot's tail.
	rows      *lensRows
	sealedMax NodeID
	// end[n] is resolve(n), or 0 while n is unresolved (node IDs start
	// at 1, so 0 is never a chain end).
	end []atomic.Uint64
	// splice[n] is spliced(n): spliceUnknown until first asked.
	splice []atomic.Uint32
}

// splice memo states.
const (
	spliceUnknown uint32 = iota
	spliceNo
	spliceYes
)

// newComputedLens returns a lens over sn that computes every row.
func newComputedLens(sn *Snapshot) *SnapLens {
	return &SnapLens{
		sn:     sn,
		end:    make([]atomic.Uint64, sn.maxID+1),
		splice: make([]atomic.Uint32, sn.maxID+1),
	}
}

// Lens returns the snapshot's personalisation lens, building it on
// first use. The same lens (and memo) is returned for the snapshot's
// whole lifetime.
func (sn *Snapshot) Lens() *SnapLens {
	sn.lensOnce.Do(func() {
		ep := sn.sealed
		if ep == nil || sn.base != nil || !sn.sealedLensHolds() {
			sn.lens = newComputedLens(sn)
			return
		}
		if sn.maxID > ep.maxID || len(sn.t.outE.lower)+len(sn.t.inE.lower) > 0 {
			sn.lens = newComputedLens(sn)
		} else {
			sn.lens = &SnapLens{sn: sn}
		}
		sn.lens.rows, sn.lens.sealedMax = ep.lensRows(), ep.maxID
	})
	return sn.lens
}

// sealedLensHolds reports whether the sealed epoch's lens rows still
// answer for every sealed node whose own rows the tail left alone: the
// tail neither newly splices a sealed node nor adds in-edges to a
// spliced one. O(tail).
func (sn *Snapshot) sealedLensHolds() bool {
	ep := sn.sealed
	for id, es := range sn.t.outE.lower {
		if redirectTarget(es) != 0 && redirectTarget(ep.outEdges(id)) == 0 {
			return false
		}
	}
	for id := range sn.t.inE.lower {
		if redirectTarget(ep.outEdges(id)) != 0 {
			return false
		}
	}
	return true
}

// redirectTarget returns the target of the first redirect among es, or
// 0 when none redirects.
func redirectTarget(es []Edge) NodeID {
	for _, e := range es {
		if e.Kind == EdgeRedirectPermanent || e.Kind == EdgeRedirectTemporary {
			return e.To
		}
	}
	return 0
}

// spliced reports whether n is removed from the unified view: a node
// from which a redirect occurs. Memoised per snapshot.
func (l *SnapLens) spliced(n NodeID) bool {
	switch l.splice[n].Load() {
	case spliceNo:
		return false
	case spliceYes:
		return true
	}
	if redirectTarget(l.sn.OutEdges(n)) != 0 {
		l.splice[n].Store(spliceYes)
		return true
	}
	l.splice[n].Store(spliceNo)
	return false
}

// resolve follows redirect out-edges from n to the final
// non-redirecting node (at most 32 hops, so cycles end), memoised per
// snapshot.
func (l *SnapLens) resolve(n NodeID) NodeID {
	if r := l.end[n].Load(); r != 0 {
		return NodeID(r)
	}
	cur := n
	for hops := 0; hops < 32; hops++ {
		next := redirectTarget(l.sn.OutEdges(cur))
		if next == 0 {
			break
		}
		cur = next
	}
	l.end[n].Store(uint64(cur))
	return cur
}

// Out implements graph.Graph: successors with embeds dropped and
// redirect targets resolved to their chain ends.
func (l *SnapLens) Out(n NodeID) []NodeID { return l.AppendOut(n, nil) }

// AppendOut implements graph.Appender: hot traversals hand the lens
// their reusable buffer instead of paying an allocation per visited
// node.
func (l *SnapLens) AppendOut(n NodeID, buf []NodeID) []NodeID {
	if l.rows != nil && n <= l.sealedMax {
		if _, dirty := l.sn.t.outE.row(l.sealedMax, n); !dirty {
			return append(buf, l.rows.outRow(n)...)
		}
	}
	return l.computeOut(n, buf)
}

// computeOut appends n's lens successors, derived from its out-edges.
func (l *SnapLens) computeOut(n NodeID, buf []NodeID) []NodeID {
	for _, e := range l.sn.OutEdges(n) {
		if e.Kind == EdgeEmbed || e.Kind == EdgeFramedLink {
			continue
		}
		t := l.resolve(e.To)
		if t != n {
			buf = append(buf, t)
		}
	}
	return buf
}

// In implements graph.Graph: predecessors with embeds dropped and
// spliced (redirecting) predecessors replaced by their own
// predecessors, transitively.
func (l *SnapLens) In(n NodeID) []NodeID { return l.AppendIn(n, nil) }

// maxSpliced bounds how many spliced predecessors one In call expands.
const maxSpliced = 32

// spliceWalk is one In call's record of the nodes it has expanded: its
// root, then each spliced predecessor it recursed into.
type spliceWalk struct {
	entered [maxSpliced + 1]NodeID
	n       int
}

// AppendIn implements graph.Appender.
func (l *SnapLens) AppendIn(n NodeID, buf []NodeID) []NodeID {
	if l.rows != nil && n <= l.sealedMax {
		if _, dirty := l.sn.t.inE.row(l.sealedMax, n); !dirty {
			return append(buf, l.rows.inRow(n)...)
		}
	}
	return l.computeIn(n, buf, nil)
}

// computeIn appends n's lens predecessors to buf, recursing through
// spliced ones. An In call expands at most maxSpliced spliced nodes,
// and none twice. When edges, not nodes, carry versions, redirects form
// cycles, often over parallel edges, and walking every path through
// them to a depth bound costs branching^depth. In a node-versioned
// history (a DAG) a node's spliced predecessors form one redirect
// chain, so there the bound limits chain length and nothing else. w is
// nil until the call meets its first spliced predecessor, so most In
// calls never set one up.
func (l *SnapLens) computeIn(n NodeID, buf []NodeID, w *spliceWalk) []NodeID {
	for _, e := range l.sn.InEdges(n) {
		if e.Kind == EdgeEmbed || e.Kind == EdgeFramedLink {
			continue
		}
		if !l.spliced(e.From) {
			buf = append(buf, e.From)
			continue
		}
		if w == nil {
			w = &spliceWalk{n: 1}
			w.entered[0] = n // n is the root
		}
		if w.n < len(w.entered) && !slices.Contains(w.entered[:w.n], e.From) {
			w.entered[w.n] = e.From
			w.n++
			buf = l.computeIn(e.From, buf, w)
		}
	}
	return buf
}

// MaxNodeID implements graph.Bounded: the lens spans the same dense ID
// space as its snapshot, so dense traversal scratch applies through it.
func (l *SnapLens) MaxNodeID() NodeID { return l.sn.maxID }

var _ graph.Graph = (*SnapLens)(nil)
var _ graph.Appender = (*SnapLens)(nil)
var _ graph.Bounded = (*SnapLens)(nil)

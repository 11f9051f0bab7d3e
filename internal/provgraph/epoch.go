package provgraph

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"browserprov/internal/graph"
)

// This file implements the epoch-snapshot read path: queries run
// lock-free against an immutable Snapshot while writers keep mutating
// the live store.
//
// The structure mirrors the sealed-block / active-frontier split of
// block-based fast marching: the bulk of the graph — everything older
// than the last seal — lives in a sealedEpoch, CSR-packed flat arrays
// shared by reference across snapshots; only the small unsealed tail
// (nodes and adjacency created or changed since the seal) is captured
// per snapshot. Snapshot cost is therefore O(tail), and the O(n) reseal
// is amortised by only resealing once the tail outgrows a fraction of
// the sealed prefix.
//
// The store's write side is the same shape: a live tail (tail.go) over
// the sealed epoch, and writers and snapshots read through one lookup
// chain (tail -> pending capture -> sealed epoch). Nothing else holds a
// copy of the graph.
//
// Concurrency contract:
//   - Store.Generation is bumped (atomically, under the store write
//     lock) by every mutation.
//   - Store.Snapshot returns a cached *Snapshot while the generation is
//     unchanged; otherwise it freezes a copy of the live tail under the
//     store lock (O(tail)).
//   - A Snapshot is deeply immutable. Tail rows share backing arrays
//     with the live tail, which is safe because rows are strictly
//     append-only: the writer may append past a snapshot's row length
//     but never rewrites the elements a snapshot can see. (Retention
//     builds a new epoch and a new tail instead of rewriting.)
//
// Resealing is incremental and happens off the writers' critical path.
// When the tail outgrows the threshold, the live tail itself becomes the
// capture of a background flatten (O(1) under the lock, plus sorting its
// visit timeline), and writers continue on a fresh tail whose limit is
// the capture's high-water mark. The flatten merges sealed epoch +
// capture into the next sealed CSR pack (O(n), but off-lock — the
// capture is never written again, so the flatten never synchronises with
// writers). Snapshots taken during the build chain over the capture
// (tail -> capture tail -> old sealed arrays), so readers stay
// consistent and never observe a half-built epoch. The finished epoch
// is published atomically under a short lock and slides in beneath the
// writers' tail, which needs no change; a retention pass during the
// build bumps sealSeq and the stale publish is discarded. The writer's worst-case pause is thereby
// O(tail), never the O(nodes+edges) rebuild.

// sealThresholdMin is the smallest tail size that triggers a reseal.
const sealThresholdMin = 1024

// openEnt is one entry of the snapshot's open-time timeline.
type openEnt struct {
	at int64 // unix micros
	id NodeID
}

// sealedEpoch is the immutable CSR-packed core shared across snapshots.
type sealedEpoch struct {
	maxID NodeID
	// nodes is indexed by NodeID (dense from 1); Kind == 0 marks a gap
	// left by retention. nil when the epoch is column-backed (cols set).
	nodes []Node
	// cols, when non-nil, backs the node table with the raw checkpoint
	// columns (typically aliasing a memory-mapped file) instead of a
	// materialised slab; nodeAt reconstructs Node values on demand. The
	// kind-derived lookup maps are then built lazily (see ensureMaps).
	cols *nodeCols
	// csr packs the out-adjacency over node IDs (its in-direction is
	// unused: CSR in-order is From-grouped, which would not preserve
	// the store's insertion order — see inOff below).
	csr *graph.CSR
	// edges is arc-ordered and From-grouped, so the out-edges of n are
	// edges[lo:hi] for (lo, hi) = csr.OutRange(n).
	edges []Edge
	// inOff/inIDs/inEdges pack the in-adjacency in the store's exact
	// insertion order per node, so first-parent choices (rootChain,
	// BFS tie-breaks) are stable across reseals.
	inOff   []uint32
	inIDs   []NodeID
	inEdges []Edge
	// visitsOff/visitIDs are a CSR of per-page visit instance lists.
	visitsOff []uint32
	visitIDs  []NodeID
	urlToPage map[string]NodeID
	termNode  map[string]NodeID // term -> latest instance at seal time
	saveNode  map[string]NodeID // save path -> download
	bookNode  map[string]NodeID // bookmarked URL -> latest bookmark
	downloads []NodeID
	// open is every visit sorted by (open time, id) — the snapshot's
	// time index.
	open []openEnt

	// mapsOnce guards the lazy build of the four lookup maps for
	// column-backed epochs.
	mapsOnce sync.Once

	// lens is the epoch's materialised §3.2 lens (see lens.go), set by
	// flattenEpoch or by a checkpoint load that finds the lens section;
	// lensOnce guards the lazy build when neither did.
	lens     *lensRows
	lensOnce sync.Once
}

// outEdges returns the out-edges of id (which must be <= maxID).
func (ep *sealedEpoch) outEdges(id NodeID) []Edge {
	lo, hi := ep.csr.OutRange(id)
	return ep.edges[lo:hi]
}

// nodeAt returns the node with the given ID (which must be <= maxID).
func (ep *sealedEpoch) nodeAt(id NodeID) (Node, bool) {
	if ep.cols != nil {
		return ep.cols.node(id)
	}
	n := ep.nodes[id]
	return n, n.Kind != 0
}

// kindPageAt returns the kind and page link of the node with the given
// ID (which must be <= maxID); ok is false for gaps.
func (ep *sealedEpoch) kindPageAt(id NodeID) (NodeKind, NodeID, bool) {
	if ep.cols != nil {
		return ep.cols.kindPage(id)
	}
	n := &ep.nodes[id]
	return n.Kind, n.Page, n.Kind != 0
}

// openCloseUSAt returns the open and close times, as unix microseconds,
// of the node with the given ID (which must be <= maxID); ok is false
// for gaps.
func (ep *sealedEpoch) openCloseUSAt(id NodeID) (open, close int64, ok bool) {
	if ep.cols != nil {
		return ep.cols.openCloseUS(id)
	}
	n := &ep.nodes[id]
	return micro(n.Open), micro(n.Close), n.Kind != 0
}

// ensureMaps builds the kind-derived lookup maps of a column-backed
// epoch on first use. Slab-backed epochs populate them at construction,
// so this is a no-op for them. Safe for concurrent use.
func (ep *sealedEpoch) ensureMaps() {
	if ep.cols == nil {
		return
	}
	ep.mapsOnce.Do(func() {
		// Size each map from a pass over the one-byte kind column, so
		// none of them grows (and copies) while it fills.
		var n [KindFormEntry + 1]int
		for id := NodeID(1); id <= ep.maxID; id++ {
			n[ep.cols.kind(id)]++
		}
		ep.urlToPage = make(map[string]NodeID, n[KindPage])
		ep.termNode = make(map[string]NodeID, n[KindSearchTerm])
		ep.saveNode = make(map[string]NodeID, n[KindDownload])
		ep.bookNode = make(map[string]NodeID, n[KindBookmark])
		// Ascending scan: the latest instance wins for per-term,
		// per-save-path and per-bookmark lookups, as in a live tail.
		for id := NodeID(1); id <= ep.maxID; id++ {
			switch ep.cols.kind(id) {
			case KindPage:
				ep.urlToPage[ep.cols.strAt(ep.cols.urlOff, ep.cols.urlBlob, id)] = id
			case KindSearchTerm:
				ep.termNode[ep.cols.strAt(ep.cols.textOff, ep.cols.textBlob, id)] = id
			case KindDownload:
				ep.saveNode[ep.cols.strAt(ep.cols.textOff, ep.cols.textBlob, id)] = id
			case KindBookmark:
				ep.bookNode[ep.cols.strAt(ep.cols.urlOff, ep.cols.urlBlob, id)] = id
			}
		}
	})
}

func (ep *sealedEpoch) pageID(url string) (NodeID, bool) {
	ep.ensureMaps()
	id, ok := ep.urlToPage[url]
	return id, ok
}

func (ep *sealedEpoch) termID(term string) (NodeID, bool) {
	ep.ensureMaps()
	id, ok := ep.termNode[term]
	return id, ok
}

func (ep *sealedEpoch) saveID(path string) (NodeID, bool) {
	ep.ensureMaps()
	id, ok := ep.saveNode[path]
	return id, ok
}

func (ep *sealedEpoch) bookmarkID(url string) (NodeID, bool) {
	ep.ensureMaps()
	id, ok := ep.bookNode[url]
	return id, ok
}

// chain is one lookup path through the graph's layers: a tail over the
// capture a reseal is flattening (base), when one is in flight, and else
// over the sealed epoch, when there is one. Lookups consult the tail
// first; the chain is at most two tails deep, because a new reseal never
// starts while one is in flight. Snapshots hold a frozen chain; the
// store's write side holds the live one.
type chain struct {
	maxID  NodeID
	t      *tail
	base   *Snapshot
	sealed *sealedEpoch
}

// Snapshot is an immutable, lock-free view of the provenance graph at
// one generation: a frozen chain. It implements graph.Graph and is the
// store's whole read surface; the query engine runs entirely against it.
type Snapshot struct {
	gen    uint64
	mode   VersioningMode
	nNodes int
	nEdges int
	chain

	lensOnce sync.Once
	lens     *SnapLens
}

// Generation returns the store generation the snapshot was taken at.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// Snapshot returns an immutable view of the store at its current
// generation. The snapshot is cached: repeated calls without intervening
// mutation return the same pointer, so the fast path is two atomic
// loads. Reading a Snapshot never takes a lock.
func (s *Store) Snapshot() *Snapshot {
	if sn := s.snap.Load(); sn != nil && sn.gen == s.gen.Load() {
		return sn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked is Snapshot's slow path; the checkpoint capture also
// uses it. Caller holds the write lock.
func (s *Store) snapshotLocked() *Snapshot {
	if sn := s.snap.Load(); sn != nil && sn.gen == s.gen.Load() {
		return sn
	}
	s.maybeReseal()
	// maybeReseal may just have captured (and cached) a flat snapshot
	// of this very generation; don't overwrite it with an equivalent
	// but slower chained one.
	if sn := s.snap.Load(); sn != nil && sn.gen == s.gen.Load() {
		return sn
	}
	sn := s.buildSnapshot()
	s.snap.Store(sn)
	return sn
}

// sealedMax returns the sealed ID high-water mark (0 when unsealed).
func (s *Store) sealedMax() NodeID {
	if s.w.sealed == nil {
		return 0
	}
	return s.w.sealed.maxID
}

// sealThreshold grows with the sealed prefix so reseals amortise to
// O(1) per mutation while the tail stays a bounded fraction of the
// whole graph.
func (s *Store) sealThreshold() int {
	t := int(s.sealedMax()) / 8
	if t < sealThresholdMin {
		t = sealThresholdMin
	}
	return t
}

// maybeReseal schedules a background reseal when the tail has outgrown
// the threshold and none is in flight. Caller holds the write lock.
func (s *Store) maybeReseal() {
	if s.sealDone != nil || s.w.t.size() <= s.sealThreshold() {
		return
	}
	s.startResealLocked()
}

// startResealLocked hands the live tail to a background goroutine that
// flattens it into the next sealed epoch, and starts writers on a fresh
// tail over it. Caller holds the write lock; at most one reseal runs at a
// time, so the write side is flat (w.base == nil) here.
func (s *Store) startResealLocked() {
	// The capture is an ordinary flat snapshot of the current generation
	// that owns the old tail: nothing writes to it again.
	s.w.t.sortOpen()
	sn := &Snapshot{gen: s.gen.Load(), mode: s.mode, nNodes: s.numNodes, nEdges: s.numEdges, chain: s.w}
	s.snap.Store(sn)
	s.w.base = sn
	s.w.t = newTail(sn.maxID)
	s.sealDone = make(chan struct{})
	seq := s.sealSeq
	gate := s.sealGate
	go func() {
		ep := flattenEpoch(sn)
		if gate != nil {
			<-gate // test hook: hold the publish to widen the in-flight window
		}
		s.completeReseal(ep, seq)
	}()
}

// completeReseal publishes a flattened epoch (unless retention replaced
// the graph mid-build) and rebuilds the cached snapshot flat on top of
// it. The writers' tail already overlays exactly the capture the epoch
// was flattened from, so it stays as it is.
func (s *Store) completeReseal(ep *sealedEpoch, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	done := s.sealDone
	s.sealDone = nil
	defer close(done)
	if s.sealSeq != seq {
		return // retention replaced the graph under the build; discard
	}
	s.w.base, s.w.sealed = nil, ep
	// Publishing moves the store to a new generation even though no
	// data changed: consumers caching per-generation views (the query
	// engine) must swap their chained capture-overlay snapshots for the
	// flat one, or an idle store would serve the slower chained reads
	// forever.
	s.gen.Add(1)
	s.snap.Store(s.buildSnapshot())
	// The epoch just published covers only what its capture saw;
	// everything ingested during the flatten is still tail. Chain the
	// next reseal immediately when that backlog already exceeds the
	// threshold, so sustained ingest drains at flatten speed instead of
	// leaving readers to pay the full inter-reseal delta per snapshot.
	s.maybeReseal()
}

// ForceReseal schedules a background reseal regardless of tail size (a
// no-op if one is already in flight). Tests and benchmarks use it to
// exercise the publish path deterministically.
func (s *Store) ForceReseal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealDone == nil {
		s.startResealLocked()
	}
}

// WaitReseal blocks until no reseal is in flight.
func (s *Store) WaitReseal() {
	for {
		s.mu.RLock()
		done := s.sealDone
		s.mu.RUnlock()
		if done == nil {
			return
		}
		<-done
	}
}

// Sealing reports whether a background reseal is currently in flight.
func (s *Store) Sealing() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealDone != nil
}

// flattenRowBlock is how many node rows each flattenEpoch loop processes
// between scheduler yields. The flatten runs on a background goroutine
// concurrently with the write path; without the yields its tight O(n)
// loops can monopolise a P for the whole rebuild and starve contended
// foreground queries and ingest (§5 "contended" benchmarks).
const flattenRowBlock = 4096

// flatEpoch returns the capture as one flat sealed epoch. A flat
// capture with an empty tail IS its sealed epoch and is reused rather
// than reproduced element by element; anything else is flattened (the
// same O(n) pass background reseals run).
func (sn *Snapshot) flatEpoch() *sealedEpoch {
	ep := sn.sealed
	if ep == nil || sn.base != nil || sn.maxID != ep.maxID || sn.t.size() != 0 {
		ep = flattenEpoch(sn)
	}
	return ep
}

// flattenEpoch builds the next sealed epoch by merging a capture's
// previous sealed arrays with its tail, reading only through the
// immutable snapshot surface — it runs off-lock, concurrently with
// writers — and materialises the new epoch's lens. O(nodes+edges).
func flattenEpoch(sn *Snapshot) *sealedEpoch {
	maxID := sn.maxID
	ep := &sealedEpoch{
		maxID:     maxID,
		nodes:     make([]Node, maxID+1),
		urlToPage: make(map[string]NodeID),
		termNode:  make(map[string]NodeID, maxID/16+1),
		saveNode:  make(map[string]NodeID),
		bookNode:  make(map[string]NodeID),
		open:      make([]openEnt, 0, maxID/2+1),
	}
	// Flat node table + kind-derived indexes. The ascending scan makes
	// the latest instance win for per-term and per-save-path lookups,
	// matching the store's "latest wins" index semantics, and collects
	// downloads in creation (= ID) order.
	for id := NodeID(1); id <= maxID; id++ {
		if id%flattenRowBlock == 0 {
			runtime.Gosched()
		}
		n, ok := sn.NodeByID(id)
		if !ok {
			continue // retention gap
		}
		ep.nodes[id] = n
		switch n.Kind {
		case KindPage:
			ep.urlToPage[n.URL] = id
		case KindVisit:
			ep.open = append(ep.open, openEnt{at: n.Open.UnixMicro(), id: id})
		case KindSearchTerm:
			ep.termNode[n.Text] = id
		case KindDownload:
			ep.saveNode[n.Text] = id
			ep.downloads = append(ep.downloads, id)
		case KindBookmark:
			ep.bookNode[n.URL] = id
		}
	}
	sort.Slice(ep.open, func(i, j int) bool {
		if ep.open[i].at != ep.open[j].at {
			return ep.open[i].at < ep.open[j].at
		}
		return ep.open[i].id < ep.open[j].id
	})
	// Out-adjacency: From-grouped arcs so out slot i == arc i and the
	// per-node order matches the store's insertion order.
	numEdges := sn.nEdges
	arcs := make([]graph.Arc, 0, numEdges)
	ep.edges = make([]Edge, 0, numEdges)
	for id := NodeID(1); id <= maxID; id++ {
		if id%flattenRowBlock == 0 {
			runtime.Gosched()
		}
		for _, e := range sn.OutEdges(id) {
			arcs = append(arcs, graph.Arc{From: e.From, To: e.To})
			ep.edges = append(ep.edges, e)
		}
	}
	ep.csr = graph.NewCSR(maxID, arcs)
	// In-adjacency: packed in the capture's per-node insertion order so
	// first-parent choices stay stable across reseals.
	ep.inOff = make([]uint32, maxID+2)
	for id := NodeID(1); id <= maxID; id++ {
		ep.inOff[id+1] = uint32(len(sn.InEdges(id)))
	}
	for i := NodeID(1); i <= maxID+1; i++ {
		ep.inOff[i] += ep.inOff[i-1]
	}
	ep.inIDs = make([]NodeID, len(ep.edges))
	ep.inEdges = make([]Edge, len(ep.edges))
	for id := NodeID(1); id <= maxID; id++ {
		if id%flattenRowBlock == 0 {
			runtime.Gosched()
		}
		o := ep.inOff[id]
		for j, e := range sn.InEdges(id) {
			ep.inIDs[o+uint32(j)] = e.From
			ep.inEdges[o+uint32(j)] = e
		}
	}
	// Per-page visit lists, CSR-packed.
	ep.visitsOff = make([]uint32, maxID+2)
	total := 0
	for id := NodeID(1); id <= maxID; id++ {
		if ep.nodes[id].Kind != KindPage {
			continue
		}
		vs := sn.VisitsOfPage(id)
		ep.visitsOff[id+1] = uint32(len(vs))
		total += len(vs)
	}
	for i := NodeID(1); i <= maxID+1; i++ {
		ep.visitsOff[i] += ep.visitsOff[i-1]
	}
	ep.visitIDs = make([]NodeID, total)
	for id := NodeID(1); id <= maxID; id++ {
		if id%flattenRowBlock == 0 {
			runtime.Gosched()
		}
		if ep.nodes[id].Kind != KindPage {
			continue
		}
		copy(ep.visitIDs[ep.visitsOff[id]:], sn.VisitsOfPage(id))
	}
	ep.lens = buildLensRows(ep)
	return ep
}

// buildSnapshot freezes the write side's chain: O(tail). Caller holds
// the write lock.
func (s *Store) buildSnapshot() *Snapshot {
	c := s.w
	c.t = c.t.freeze()
	return &Snapshot{gen: s.gen.Load(), mode: s.mode, nNodes: s.numNodes, nEdges: s.numEdges, chain: c}
}

// ---- Snapshot read surface ----

// Generation returns the generation the snapshot captures.
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Mode returns the store's versioning mode.
func (sn *Snapshot) Mode() VersioningMode { return sn.mode }

// MaxNodeID returns the highest node ID in the snapshot — the watermark
// for incremental consumers (see NodesSince).
func (sn *Snapshot) MaxNodeID() NodeID { return sn.maxID }

// NumNodes returns the number of live nodes.
func (sn *Snapshot) NumNodes() int { return sn.nNodes }

// NumEdges returns the number of edges.
func (sn *Snapshot) NumEdges() int { return sn.nEdges }

// NodeByID returns the node with the given ID.
func (c *chain) NodeByID(id NodeID) (Node, bool) {
	if n, hit := c.t.node(id); hit {
		if n == nil {
			return Node{}, false
		}
		return *n, true
	}
	if c.base != nil {
		return c.base.NodeByID(id)
	}
	if c.sealed != nil && id <= c.sealed.maxID {
		return c.sealed.nodeAt(id)
	}
	return Node{}, false
}

// KindPage returns the kind and page link of node id, following the same
// chain as NodeByID but reading only those two fields: no strings or
// times are decoded, and nothing is allocated.
func (c *chain) KindPage(id NodeID) (NodeKind, NodeID, bool) {
	if n, hit := c.t.node(id); hit {
		if n == nil {
			return 0, 0, false
		}
		return n.Kind, n.Page, true
	}
	if c.base != nil {
		return c.base.KindPage(id)
	}
	if c.sealed != nil && id <= c.sealed.maxID {
		return c.sealed.kindPageAt(id)
	}
	return 0, 0, false
}

// OpenClose returns the open and close times of node id, following the
// same chain as NodeByID without decoding the node's strings.
func (c *chain) OpenClose(id NodeID) (open, close time.Time, ok bool) {
	o, cl, ok := c.OpenCloseUS(id)
	return microTime(o), microTime(cl), ok
}

// OpenCloseUS returns the open and close times of node id as unix
// microseconds, 0 for a zero time (a close never observed). It answers
// from whichever layer holds id with one lookup, reading a
// column-backed epoch's time columns raw. Stored times are whole
// microseconds (applyEvent folds them to the journal's resolution), so
// this loses nothing against NodeByID.
func (c *chain) OpenCloseUS(id NodeID) (open, close int64, ok bool) {
	if n, hit := c.t.node(id); hit {
		if n == nil {
			return 0, 0, false
		}
		return micro(n.Open), micro(n.Close), true
	}
	if c.base != nil {
		return c.base.OpenCloseUS(id)
	}
	if c.sealed != nil && id <= c.sealed.maxID {
		return c.sealed.openCloseUSAt(id)
	}
	return 0, 0, false
}

// NodesSince streams every node with ID > watermark in ID order,
// stopping early if fn returns false. This is the incremental-indexing
// hook: consumers remember MaxNodeID as their watermark and only ever
// visit the delta.
func (sn *Snapshot) NodesSince(watermark NodeID, fn func(Node) bool) {
	for id := watermark + 1; id <= sn.maxID; id++ {
		if n, ok := sn.NodeByID(id); ok {
			if !fn(n) {
				return
			}
		}
	}
}

// Out implements graph.Graph. The returned slice is shared; do not
// modify.
func (c *chain) Out(n NodeID) []NodeID {
	if ids, hit := c.t.outIDs.row(c.t.limit, n); hit {
		return ids
	}
	if c.base != nil {
		return c.base.Out(n)
	}
	if c.sealed != nil {
		return c.sealed.csr.Out(n)
	}
	return nil
}

// In implements graph.Graph. The returned slice is shared; do not
// modify.
func (c *chain) In(n NodeID) []NodeID {
	if ids, hit := c.t.inIDs.row(c.t.limit, n); hit {
		return ids
	}
	if c.base != nil {
		return c.base.In(n)
	}
	if c.sealed != nil && n <= c.sealed.maxID {
		return c.sealed.inIDs[c.sealed.inOff[n]:c.sealed.inOff[n+1]]
	}
	return nil
}

// OutEdges returns n's outgoing edges. The slice is shared; do not
// modify.
func (c *chain) OutEdges(n NodeID) []Edge {
	if es, hit := c.t.outE.row(c.t.limit, n); hit {
		return es
	}
	if c.base != nil {
		return c.base.OutEdges(n)
	}
	if c.sealed != nil && n <= c.sealed.maxID {
		return c.sealed.outEdges(n)
	}
	return nil
}

// InEdges returns n's incoming edges. The slice is shared; do not
// modify.
func (c *chain) InEdges(n NodeID) []Edge {
	if es, hit := c.t.inE.row(c.t.limit, n); hit {
		return es
	}
	if c.base != nil {
		return c.base.InEdges(n)
	}
	if c.sealed != nil && n <= c.sealed.maxID {
		return c.sealed.inEdges[c.sealed.inOff[n]:c.sealed.inOff[n+1]]
	}
	return nil
}

// VisitsOfPage returns the visit instance IDs of a page in visit order
// (none in VersionEdges mode). The slice is shared; do not modify.
func (c *chain) VisitsOfPage(page NodeID) []NodeID {
	if vs, hit := c.t.visits.row(c.t.limit, page); hit {
		return vs
	}
	if c.base != nil {
		return c.base.VisitsOfPage(page)
	}
	if c.sealed != nil && page <= c.sealed.maxID {
		return c.sealed.visitIDs[c.sealed.visitsOff[page]:c.sealed.visitsOff[page+1]]
	}
	return nil
}

// lookup resolves a key through the chain's per-layer maps: the tail's
// (pick), then the pending capture's, then the sealed epoch's (sealed).
func (c *chain) lookup(key string, pick func(*tail) map[string]NodeID,
	sealed func(*sealedEpoch, string) (NodeID, bool)) (NodeID, bool) {
	if id, ok := pick(c.t)[key]; ok {
		return id, true
	}
	if c.base != nil {
		return c.base.lookup(key, pick, sealed)
	}
	if c.sealed != nil {
		return sealed(c.sealed, key)
	}
	return 0, false
}

// nodeFor returns the node a lookup found.
func (c *chain) nodeFor(id NodeID, ok bool) (Node, bool) {
	if !ok {
		return Node{}, false
	}
	return c.NodeByID(id)
}

func tailURL(t *tail) map[string]NodeID      { return t.url }
func tailTerm(t *tail) map[string]NodeID     { return t.term }
func tailSave(t *tail) map[string]NodeID     { return t.save }
func tailBookmark(t *tail) map[string]NodeID { return t.bookmark }

// PageByURL returns the page identity node for url.
func (c *chain) PageByURL(url string) (Node, bool) {
	return c.nodeFor(c.lookup(url, tailURL, (*sealedEpoch).pageID))
}

// TermNode returns the latest search-term instance for the exact term
// string.
func (c *chain) TermNode(term string) (Node, bool) {
	return c.nodeFor(c.lookup(term, tailTerm, (*sealedEpoch).termID))
}

// DownloadBySavePath returns the download node saved at path (the most
// recent one, if several downloads share a save path).
func (c *chain) DownloadBySavePath(path string) (Node, bool) {
	return c.nodeFor(c.lookup(path, tailSave, (*sealedEpoch).saveID))
}

// bookmarkID returns the latest bookmark of url.
func (c *chain) bookmarkID(url string) (NodeID, bool) {
	return c.lookup(url, tailBookmark, (*sealedEpoch).bookmarkID)
}

// Downloads returns the IDs of every download node in creation order.
func (c *chain) Downloads() []NodeID {
	var lower []NodeID
	if c.base != nil {
		lower = c.base.Downloads()
	} else if c.sealed != nil {
		lower = c.sealed.downloads
	}
	if len(c.t.dls) == 0 {
		return lower
	}
	out := make([]NodeID, 0, len(lower)+len(c.t.dls))
	out = append(out, lower...)
	return append(out, c.t.dls...)
}

// VisitCount returns the number of recorded visits of a page node. In
// VersionEdges mode it counts incoming navigation edges instead (a page
// visited once by typing has no in-edges; it still was visited).
func (sn *Snapshot) VisitCount(page NodeID) int {
	if sn.mode == VersionEdges {
		n := len(sn.In(page))
		if n == 0 {
			if _, ok := sn.NodeByID(page); ok {
				return 1
			}
		}
		return n
	}
	return len(sn.VisitsOfPage(page))
}

// OpenBetween returns visit nodes whose open time t satisfies
// lo <= t < hi, in (open, id) order.
func (sn *Snapshot) OpenBetween(lo, hi time.Time) []NodeID {
	ents := sn.openEnts(lo.UnixMicro(), hi.UnixMicro())
	out := make([]NodeID, len(ents))
	for i, e := range ents {
		out[i] = e.id
	}
	return out
}

// openEnts returns the snapshot's (open, id)-ordered visit entries in
// [lo, hi), merging the sealed timeline, any pending capture's tail,
// and the snapshot's own tail. Events may arrive with out-of-order
// timestamps, so the runs can interleave.
func (sn *Snapshot) openEnts(loU, hiU int64) []openEnt {
	var lower []openEnt
	if sn.base != nil {
		lower = sn.base.openEnts(loU, hiU)
	} else if sn.sealed != nil {
		lower = openRange(sn.sealed.open, loU, hiU)
	}
	tail := openRange(sn.t.open, loU, hiU)
	if len(tail) == 0 {
		return lower
	}
	if len(lower) == 0 {
		return tail
	}
	out := make([]openEnt, 0, len(lower)+len(tail))
	i, j := 0, 0
	for i < len(lower) && j < len(tail) {
		if lower[i].at < tail[j].at || (lower[i].at == tail[j].at && lower[i].id < tail[j].id) {
			out = append(out, lower[i])
			i++
		} else {
			out = append(out, tail[j])
			j++
		}
	}
	out = append(out, lower[i:]...)
	return append(out, tail[j:]...)
}

// openRange returns the subrange of ents with lo <= at < hi.
func openRange(ents []openEnt, lo, hi int64) []openEnt {
	a := sort.Search(len(ents), func(i int) bool { return ents[i].at >= lo })
	b := sort.Search(len(ents), func(i int) bool { return ents[i].at >= hi })
	return ents[a:b]
}

var _ graph.Graph = (*Snapshot)(nil)
var _ graph.Bounded = (*Snapshot)(nil)

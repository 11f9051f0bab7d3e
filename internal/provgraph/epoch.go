package provgraph

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
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
// Concurrency contract:
//   - Store.Generation is bumped (atomically, under the store write
//     lock) by every mutation.
//   - Store.Snapshot returns a cached *Snapshot while the generation is
//     unchanged; otherwise it rebuilds one under the store lock.
//   - A Snapshot is deeply immutable. Tail adjacency shares backing
//     arrays with the live store, which is safe because adjacency
//     slices are strictly append-only between seals: the writer may
//     append past a snapshot's slice length but never rewrites the
//     elements a snapshot can see. (Wholesale rewrites — retention —
//     invalidate the epoch and force a full reseal.)
//
// Resealing is incremental and happens off the writers' critical path.
// When the tail outgrows the threshold, the write path captures the
// current tail as an ordinary Snapshot under the lock (O(tail)), swaps
// in fresh dirty sets, and hands the capture to a background goroutine
// that flattens sealed-epoch + tail into the next sealed CSR pack
// (O(n), but off-lock — the capture is immutable, so the flatten never
// synchronises with writers). Meanwhile writers keep appending to a
// fresh overlay: snapshots taken during the build chain over the
// pending capture (tail -> capture tail -> old sealed arrays), so
// readers stay consistent and never observe a half-built epoch. The
// finished epoch is published atomically under a short lock; a
// wholesale rewrite (retention) during the build bumps sealSeq and the
// stale publish is discarded. The writer's worst-case pause is thereby
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
	downloads []NodeID
	// open is every visit sorted by (open time, id) — the snapshot's
	// time index.
	open []openEnt

	// mapsOnce guards the lazy build of urlToPage/termNode/saveNode for
	// column-backed epochs.
	mapsOnce sync.Once
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

// openCloseAt returns the open and close times of the node with the
// given ID (which must be <= maxID); ok is false for gaps.
func (ep *sealedEpoch) openCloseAt(id NodeID) (open, close time.Time, ok bool) {
	if ep.cols != nil {
		return ep.cols.openClose(id)
	}
	n := &ep.nodes[id]
	return n.Open, n.Close, n.Kind != 0
}

// ensureMaps builds the kind-derived lookup maps of a column-backed
// epoch on first use. Slab-backed epochs populate them at construction,
// so this is a no-op for them. Safe for concurrent use.
func (ep *sealedEpoch) ensureMaps() {
	if ep.cols == nil {
		return
	}
	ep.mapsOnce.Do(func() {
		ep.urlToPage = make(map[string]NodeID, ep.maxID/4+1)
		ep.termNode = make(map[string]NodeID, ep.maxID/16+1)
		ep.saveNode = make(map[string]NodeID)
		// Ascending scan: the latest instance wins for per-term and
		// per-save-path lookups, matching live index semantics.
		for id := NodeID(1); id <= ep.maxID; id++ {
			switch ep.cols.kind(id) {
			case KindPage:
				ep.urlToPage[ep.cols.strAt(ep.cols.urlOff, ep.cols.urlBlob, id)] = id
			case KindSearchTerm:
				ep.termNode[ep.cols.strAt(ep.cols.textOff, ep.cols.textBlob, id)] = id
			case KindDownload:
				ep.saveNode[ep.cols.strAt(ep.cols.textOff, ep.cols.textBlob, id)] = id
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

// Snapshot is an immutable, lock-free view of the provenance graph at
// one generation. It implements graph.Graph and mirrors the store's
// read surface, so the query engine can run entirely against it.
type Snapshot struct {
	gen    uint64
	mode   VersioningMode
	maxID  NodeID
	nNodes int
	nEdges int
	sealed *sealedEpoch // nil while the store has never sealed

	// base, when non-nil, is the pending reseal capture this snapshot
	// overlays: it was taken while a background flatten was in flight,
	// and its tail holds only mutations since the capture. Lookups
	// chain tail -> base -> sealed; the chain is at most two deep (a
	// new reseal never starts while one is in flight, and a capture is
	// always taken from a flat snapshot).
	base *Snapshot

	// Tail state: nodes created since the seal (or since the pending
	// capture) plus earlier nodes whose fields, adjacency or visit
	// lists changed. Lookups consult the tail first, then base/sealed.
	tailNodes  map[NodeID]Node
	tailOut    map[NodeID][]Edge
	tailIn     map[NodeID][]Edge
	tailOutIDs map[NodeID][]NodeID
	tailInIDs  map[NodeID][]NodeID
	tailVisits map[NodeID][]NodeID
	tailURL    map[string]NodeID
	tailTerm   map[string]NodeID
	tailSave   map[string]NodeID
	tailDls    []NodeID
	tailOpen   []openEnt

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

// epochInit prepares the store's epoch-tracking state (called from
// OpenWith before journal recovery).
func (s *Store) epochInit() {
	s.dirtyNode = make(map[NodeID]struct{})
	s.dirtyOut = make(map[NodeID]struct{})
	s.dirtyIn = make(map[NodeID]struct{})
	s.dirtyVisits = make(map[NodeID]struct{})
}

// epochReset discards the sealed epoch after a wholesale rewrite
// (retention). Any in-flight reseal was built from pre-rewrite state:
// bumping sealSeq makes its publish a no-op. Caller holds the write
// lock.
func (s *Store) epochReset() {
	s.sealed = nil
	s.pending = nil
	s.sealSeq++
	s.epochInit()
	s.snap.Store(nil)
}

// sealedMax returns the sealed ID high-water mark (0 when unsealed).
func (s *Store) sealedMax() NodeID {
	if s.sealed == nil {
		return 0
	}
	return s.sealed.maxID
}

// dirtyLimit is the ID boundary dirty tracking is relative to: the
// pending capture's high-water mark while a reseal is in flight
// (mutations of anything the next epoch will cover must be re-overlaid
// on top of it), the published seal's otherwise.
func (s *Store) dirtyLimit() NodeID {
	if s.pending != nil {
		return s.pending.maxID
	}
	return s.sealedMax()
}

// markDirtyNode records an in-place field mutation of a sealed (or
// pending-sealed) node.
func (s *Store) markDirtyNode(id NodeID) {
	if id <= s.dirtyLimit() {
		s.dirtyNode[id] = struct{}{}
	}
}

func (s *Store) tailSize() int {
	return int(s.nextNode-1-s.dirtyLimit()) +
		len(s.dirtyNode) + len(s.dirtyOut) + len(s.dirtyIn) + len(s.dirtyVisits)
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
	if s.sealDone != nil || s.tailSize() <= s.sealThreshold() {
		return
	}
	s.startResealLocked()
}

// startResealLocked captures the current tail (O(tail)) and hands it to
// a background goroutine that flattens it into the next sealed epoch.
// Caller holds the write lock; at most one reseal runs at a time.
func (s *Store) startResealLocked() {
	// The capture is an ordinary snapshot of the current generation.
	// Reuse the cached one only if it is flat (base == nil keeps the
	// overlay chain depth bounded at two).
	sn := s.snap.Load()
	if sn == nil || sn.gen != s.gen.Load() || sn.base != nil {
		sn = s.buildSnapshot()
		s.snap.Store(sn)
	}
	s.pending = sn
	// Fresh overlay: mutations from here on are tracked relative to the
	// capture; the flatten incorporates everything at or below it.
	s.dirtyNode = make(map[NodeID]struct{})
	s.dirtyOut = make(map[NodeID]struct{})
	s.dirtyIn = make(map[NodeID]struct{})
	s.dirtyVisits = make(map[NodeID]struct{})
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

// completeReseal publishes a flattened epoch (unless a wholesale
// rewrite invalidated it mid-build) and rebuilds the cached snapshot
// flat on top of it.
func (s *Store) completeReseal(ep *sealedEpoch, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	done := s.sealDone
	s.sealDone = nil
	s.pending = nil
	defer close(done)
	if s.sealSeq != seq {
		return // retention rewrote the graph under the build; discard
	}
	s.sealed = ep
	// Publishing moves the store to a new generation even though no
	// data changed: consumers caching per-generation views (the query
	// engine) must swap their chained capture-overlay snapshots for the
	// flat one, or an idle store would serve the slower chained reads
	// forever.
	s.gen.Add(1)
	sn := s.buildSnapshot()
	s.snap.Store(sn)
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

// flattenEpoch builds the next sealed epoch by merging a capture's
// previous sealed arrays with its tail, reading only through the
// immutable snapshot surface — it runs off-lock, concurrently with
// writers. O(nodes+edges).
func flattenEpoch(sn *Snapshot) *sealedEpoch {
	maxID := sn.maxID
	ep := &sealedEpoch{
		maxID:     maxID,
		nodes:     make([]Node, maxID+1),
		urlToPage: make(map[string]NodeID),
		termNode:  make(map[string]NodeID, maxID/16+1),
		saveNode:  make(map[string]NodeID),
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
	return ep
}

// buildSnapshot captures the unsealed tail: everything past the sealed
// epoch, or — while a reseal is in flight — everything past the
// pending capture, which the snapshot then chains over. O(tail); caller
// holds the write lock.
func (s *Store) buildSnapshot() *Snapshot {
	sn := &Snapshot{
		gen:        s.gen.Load(),
		mode:       s.mode,
		maxID:      s.nextNode - 1,
		nNodes:     s.numNodes,
		nEdges:     s.numEdges,
		sealed:     s.sealed,
		base:       s.pending,
		tailNodes:  make(map[NodeID]Node),
		tailOut:    make(map[NodeID][]Edge),
		tailIn:     make(map[NodeID][]Edge),
		tailOutIDs: make(map[NodeID][]NodeID),
		tailInIDs:  make(map[NodeID][]NodeID),
		tailVisits: make(map[NodeID][]NodeID),
		tailURL:    make(map[string]NodeID),
		tailTerm:   make(map[string]NodeID),
		tailSave:   make(map[string]NodeID),
	}
	captureAdj := func(id NodeID) {
		if es := s.outE.at(id); len(es) > 0 {
			sn.tailOut[id] = es
			sn.tailOutIDs[id] = s.outIDs.at(id)
		}
		if es := s.inE.at(id); len(es) > 0 {
			sn.tailIn[id] = es
			sn.tailInIDs[id] = s.inIDs.at(id)
		}
	}
	// New nodes since the seal/capture (IDs are dense, so the tail is a
	// range).
	for id := s.dirtyLimit() + 1; id <= sn.maxID; id++ {
		n, ok := s.nodes[id]
		if !ok {
			continue
		}
		sn.tailNodes[id] = *n
		captureAdj(id)
		switch n.Kind {
		case KindPage:
			sn.tailURL[n.URL] = id
			if vs := s.pageVisits[id]; len(vs) > 0 {
				sn.tailVisits[id] = vs
			}
		case KindVisit:
			sn.tailOpen = append(sn.tailOpen, openEnt{at: n.Open.UnixMicro(), id: id})
		case KindSearchTerm:
			// Ascending scan: the last instance of a term wins, matching
			// the store's latest-instance term index.
			sn.tailTerm[n.Text] = id
		case KindDownload:
			sn.tailSave[n.Text] = id
			sn.tailDls = append(sn.tailDls, id)
		}
	}
	sort.Slice(sn.tailOpen, func(i, j int) bool {
		if sn.tailOpen[i].at != sn.tailOpen[j].at {
			return sn.tailOpen[i].at < sn.tailOpen[j].at
		}
		return sn.tailOpen[i].id < sn.tailOpen[j].id
	})
	// Sealed nodes touched since the seal.
	for id := range s.dirtyNode {
		sn.tailNodes[id] = *s.nodes[id]
	}
	for id := range s.dirtyOut {
		sn.tailOut[id] = s.outE.at(id)
		sn.tailOutIDs[id] = s.outIDs.at(id)
	}
	for id := range s.dirtyIn {
		sn.tailIn[id] = s.inE.at(id)
		sn.tailInIDs[id] = s.inIDs.at(id)
	}
	for page := range s.dirtyVisits {
		sn.tailVisits[page] = s.pageVisits[page]
	}
	return sn
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
func (sn *Snapshot) NodeByID(id NodeID) (Node, bool) {
	if n, ok := sn.tailNodes[id]; ok {
		return n, true
	}
	if sn.base != nil {
		return sn.base.NodeByID(id)
	}
	if sn.sealed != nil && id <= sn.sealed.maxID {
		return sn.sealed.nodeAt(id)
	}
	return Node{}, false
}

// KindPage returns the kind and page link of node id, following the same
// tail -> base -> sealed chain as NodeByID but reading only those two
// fields: no strings or times are decoded, and nothing is allocated.
func (sn *Snapshot) KindPage(id NodeID) (NodeKind, NodeID, bool) {
	if n, ok := sn.tailNodes[id]; ok {
		return n.Kind, n.Page, true
	}
	if sn.base != nil {
		return sn.base.KindPage(id)
	}
	if sn.sealed != nil && id <= sn.sealed.maxID {
		return sn.sealed.kindPageAt(id)
	}
	return 0, 0, false
}

// OpenClose returns the open and close times of node id, following the
// same chain as NodeByID without decoding the node's strings.
func (sn *Snapshot) OpenClose(id NodeID) (open, close time.Time, ok bool) {
	if n, ok := sn.tailNodes[id]; ok {
		return n.Open, n.Close, true
	}
	if sn.base != nil {
		return sn.base.OpenClose(id)
	}
	if sn.sealed != nil && id <= sn.sealed.maxID {
		return sn.sealed.openCloseAt(id)
	}
	return time.Time{}, time.Time{}, false
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
func (sn *Snapshot) Out(n NodeID) []NodeID {
	if ids, ok := sn.tailOutIDs[n]; ok {
		return ids
	}
	if sn.base != nil {
		return sn.base.Out(n)
	}
	if sn.sealed != nil {
		return sn.sealed.csr.Out(n)
	}
	return nil
}

// In implements graph.Graph. The returned slice is shared; do not
// modify.
func (sn *Snapshot) In(n NodeID) []NodeID {
	if ids, ok := sn.tailInIDs[n]; ok {
		return ids
	}
	if sn.base != nil {
		return sn.base.In(n)
	}
	if sn.sealed != nil && n <= sn.sealed.maxID {
		return sn.sealed.inIDs[sn.sealed.inOff[n]:sn.sealed.inOff[n+1]]
	}
	return nil
}

// OutEdges returns n's outgoing edges. The slice is shared; do not
// modify.
func (sn *Snapshot) OutEdges(n NodeID) []Edge {
	if es, ok := sn.tailOut[n]; ok {
		return es
	}
	if sn.base != nil {
		return sn.base.OutEdges(n)
	}
	if sn.sealed != nil && n <= sn.sealed.maxID {
		lo, hi := sn.sealed.csr.OutRange(n)
		return sn.sealed.edges[lo:hi]
	}
	return nil
}

// InEdges returns n's incoming edges. The slice is shared; do not
// modify.
func (sn *Snapshot) InEdges(n NodeID) []Edge {
	if es, ok := sn.tailIn[n]; ok {
		return es
	}
	if sn.base != nil {
		return sn.base.InEdges(n)
	}
	if sn.sealed != nil && n <= sn.sealed.maxID {
		return sn.sealed.inEdges[sn.sealed.inOff[n]:sn.sealed.inOff[n+1]]
	}
	return nil
}

// PageByURL returns the page identity node for url.
func (sn *Snapshot) PageByURL(url string) (Node, bool) {
	if id, ok := sn.tailURL[url]; ok {
		return sn.NodeByID(id)
	}
	if sn.base != nil {
		return sn.base.PageByURL(url)
	}
	if sn.sealed != nil {
		if id, ok := sn.sealed.pageID(url); ok {
			return sn.NodeByID(id)
		}
	}
	return Node{}, false
}

// TermNode returns the latest search-term instance for the exact term
// string.
func (sn *Snapshot) TermNode(term string) (Node, bool) {
	if id, ok := sn.tailTerm[term]; ok {
		return sn.NodeByID(id)
	}
	if sn.base != nil {
		return sn.base.TermNode(term)
	}
	if sn.sealed != nil {
		if id, ok := sn.sealed.termID(term); ok {
			return sn.NodeByID(id)
		}
	}
	return Node{}, false
}

// DownloadBySavePath returns the download node saved at path.
func (sn *Snapshot) DownloadBySavePath(path string) (Node, bool) {
	if id, ok := sn.tailSave[path]; ok {
		return sn.NodeByID(id)
	}
	if sn.base != nil {
		return sn.base.DownloadBySavePath(path)
	}
	if sn.sealed != nil {
		if id, ok := sn.sealed.saveID(path); ok {
			return sn.NodeByID(id)
		}
	}
	return Node{}, false
}

// Downloads returns the IDs of every download node in creation order.
func (sn *Snapshot) Downloads() []NodeID {
	var lower []NodeID
	if sn.base != nil {
		lower = sn.base.Downloads()
	} else if sn.sealed != nil {
		lower = sn.sealed.downloads
	}
	if len(sn.tailDls) == 0 {
		return lower
	}
	out := make([]NodeID, 0, len(lower)+len(sn.tailDls))
	out = append(out, lower...)
	return append(out, sn.tailDls...)
}

// VisitsOfPage returns the visit instance IDs of a page in visit order.
// The slice is shared; do not modify.
func (sn *Snapshot) VisitsOfPage(page NodeID) []NodeID {
	if vs, ok := sn.tailVisits[page]; ok {
		return vs
	}
	if sn.base != nil {
		return sn.base.VisitsOfPage(page)
	}
	if sn.sealed != nil && page <= sn.sealed.maxID {
		return sn.sealed.visitIDs[sn.sealed.visitsOff[page]:sn.sealed.visitsOff[page+1]]
	}
	return nil
}

// VisitCount mirrors Store.VisitCount over the snapshot.
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
	tail := openRange(sn.tailOpen, loU, hiU)
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

// ---- snapshot lens ----

// SnapLens is the redirect-splicing personalisation lens (§3.2) over an
// immutable snapshot. Unlike the store Lens it takes no locks and its
// redirect-resolution memo is shared by every query on the same epoch:
// chains are resolved once per generation, not once per query.
//
// The memo is two dense slabs indexed by NodeID, allocated once per
// snapshot (12 B per node) and filled lazily with atomic loads and
// stores, so parallel expansion workers can share it. Racing workers
// resolving the same node compute and store the same value. The memo is
// per snapshot, never carried over from the sealed epoch: a tail
// redirect added to a sealed node changes that node's chain ends.
// It is safe for concurrent use.
type SnapLens struct {
	sn *Snapshot
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

// Lens returns the snapshot's personalisation lens, building it on
// first use. The same lens (and memo) is returned for the snapshot's
// whole lifetime.
func (sn *Snapshot) Lens() *SnapLens {
	sn.lensOnce.Do(func() {
		sn.lens = &SnapLens{
			sn:     sn,
			end:    make([]atomic.Uint64, sn.maxID+1),
			splice: make([]atomic.Uint32, sn.maxID+1),
		}
	})
	return sn.lens
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
// from which a redirect occurs. Memoised per epoch.
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
// epoch.
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

// AppendOut implements graph.Appender: the lens materialises adjacency
// on the fly, so hot traversals hand it their reusable buffer instead
// of paying an allocation per visited node.
func (l *SnapLens) AppendOut(n NodeID, buf []NodeID) []NodeID {
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

// AppendIn implements graph.Appender.
func (l *SnapLens) AppendIn(n NodeID, buf []NodeID) []NodeID {
	return l.appendIn(n, buf, 0)
}

func (l *SnapLens) appendIn(n NodeID, buf []NodeID, depth int) []NodeID {
	if depth > 32 {
		return buf
	}
	for _, e := range l.sn.InEdges(n) {
		if e.Kind == EdgeEmbed || e.Kind == EdgeFramedLink {
			continue
		}
		if l.spliced(e.From) {
			buf = l.appendIn(e.From, buf, depth+1)
			continue
		}
		buf = append(buf, e.From)
	}
	return buf
}

// MaxNodeID implements graph.Bounded: the lens spans the same dense ID
// space as its snapshot, so dense traversal scratch applies through it.
func (l *SnapLens) MaxNodeID() NodeID { return l.sn.maxID }

var _ graph.Graph = (*SnapLens)(nil)
var _ graph.Appender = (*SnapLens)(nil)
var _ graph.Bounded = (*SnapLens)(nil)

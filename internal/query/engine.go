// Package query implements the paper's four use-case queries (§2) over
// the provenance graph store:
//
//   - Contextual history search (§2.1): textual search re-ranked and
//     extended by provenance neighborhood expansion (after Shah et al.),
//     optionally refined with HITS over the expanded subgraph.
//   - Personalised web search (§2.2): term-frequency analysis over the
//     contextual neighborhood to find user-specific terms to add to a
//     web query — personalisation without sending history to the engine.
//   - Time-contextual history search (§2.3): "wine associated with plane
//     tickets" — matches ranked by co-display interval overlap.
//   - Download lineage (§2.4): breadth-first ancestor search to the
//     first recognizable page, and descendant scans for downloads.
//
// The canonical way in is a snapshot-pinned View (see view.go): every
// query takes a context, variadic per-call options, and runs under a
// time budget (default 200 ms, the bound the paper reports); expansion
// checks budget and cancellation between frontier rounds, so results
// degrade gracefully instead of blowing the deadline.
package query

import (
	"sync"
	"sync/atomic"

	"browserprov/internal/provgraph"
	"browserprov/internal/textindex"
)

// viewRetain is how many materialised epoch snapshots the engine keeps
// for ViewAt time travel. Snapshots share their sealed epoch by
// reference, so retention costs only the unsealed tails.
const viewRetain = 8

// Engine evaluates use-case queries against one provenance store.
//
// Queries never touch the live store: each runs against an immutable
// epoch snapshot (provgraph.Snapshot), so concurrent queries proceed
// lock-free and never contend with each other. The engine caches the
// snapshot and its text index per store generation; when the store
// moves, the next query re-snapshots and catches the index up
// incrementally from its node-ID watermark.
type Engine struct {
	store *provgraph.Store
	opts  Options

	// curr is the cached per-generation view; the read fast path is two
	// atomic loads (store generation + cached snapshot).
	curr atomic.Pointer[provgraph.Snapshot]

	// mu serialises snapshot refresh and index catch-up. The index is
	// monotonic (history is append-only between expirations), so it is
	// shared across generations; lastIndexed is the watermark.
	mu          sync.Mutex
	index       *textindex.Index
	lastIndexed provgraph.NodeID

	// recent retains the last viewRetain materialised snapshots keyed by
	// generation, for ViewAt. Guarded by mu.
	recent      map[uint64]*provgraph.Snapshot
	recentOrder []uint64
}

// NewEngine builds an engine over store, indexing every page, search
// term, download and form node for textual search. Pass Options{} for
// the defaults; any knob can be overridden per query call with the
// With* options.
//
// When the store was opened from a checkpoint carrying text-index
// postings, the engine warm-starts: it claims the checkpoint's text-index postings and
// indexes only nodes past the persisted watermark, instead of
// retokenizing the whole history on the first query. It also registers
// itself as the store's checkpoint text source, so subsequent
// checkpoints carry the index forward.
func NewEngine(store *provgraph.Store, opts Options) *Engine {
	e := &Engine{
		store:  store,
		opts:   opts,
		index:  textindex.New(),
		recent: make(map[uint64]*provgraph.Snapshot, viewRetain),
	}
	if ix, watermark, ok := store.RecoveredTextIndex(); ok {
		e.index = ix
		e.lastIndexed = watermark
	}
	store.SetTextCheckpointSource(e.checkpointText)
	e.snapshot() // prime the first view and index the remaining history
	return e
}

// checkpointText serialises the engine's index for a checkpoint fenced
// at maxDoc. The saved postings are cut at min(indexed, maxDoc): never
// past the checkpoint's graph (a crash that loses WAL tail must not
// leave the recovered index ahead of the recovered graph), and never
// past what is actually indexed (re-indexing an already-loaded doc
// would stack its terms twice).
func (e *Engine) checkpointText(maxDoc provgraph.NodeID) ([]byte, provgraph.NodeID) {
	e.mu.Lock()
	watermark := e.lastIndexed
	e.mu.Unlock()
	if maxDoc < watermark {
		watermark = maxDoc
	}
	// SaveUnder takes the index's own lock; writers may keep indexing
	// past the watermark concurrently — the doc-sorted cut is immune.
	return e.index.SaveUnder(textindex.DocID(watermark)), watermark
}

// snapshot returns the engine's current immutable view, refreshing the
// cached snapshot and catching the text index up when the store moved.
func (e *Engine) snapshot() *provgraph.Snapshot {
	if sn := e.curr.Load(); sn != nil && sn.Generation() == e.store.Generation() {
		return sn
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if sn := e.curr.Load(); sn != nil && sn.Generation() == e.store.Generation() {
		return sn
	}
	sn := e.store.Snapshot()
	// Index only the delta: node IDs are dense and monotonic, so
	// everything new since the last refresh is (watermark, maxID].
	sn.NodesSince(e.lastIndexed, func(n provgraph.Node) bool {
		e.indexNode(n)
		return true
	})
	e.lastIndexed = sn.MaxNodeID()
	e.curr.Store(sn)
	e.retain(sn)
	return sn
}

// retain records sn in the ViewAt ring, evicting the oldest entry
// beyond viewRetain. Caller holds e.mu.
func (e *Engine) retain(sn *provgraph.Snapshot) {
	gen := sn.Generation()
	if _, ok := e.recent[gen]; ok {
		return
	}
	e.recent[gen] = sn
	e.recentOrder = append(e.recentOrder, gen)
	for len(e.recentOrder) > viewRetain {
		delete(e.recent, e.recentOrder[0])
		e.recentOrder = e.recentOrder[1:]
	}
}

// Snapshot returns the immutable graph view queries currently run
// against, refreshing it if the store has moved. Callers composing
// multi-step reads should prefer View, which pins one snapshot for the
// whole investigation.
func (e *Engine) Snapshot() *provgraph.Snapshot { return e.snapshot() }

// indexNode adds one node to the text index. Visit instances are not
// indexed separately — they share their page's identity; queries seed
// expansion from the page's instances.
func (e *Engine) indexNode(n provgraph.Node) {
	switch n.Kind {
	case provgraph.KindPage:
		e.index.Add(textindex.DocID(n.ID), n.URL, n.Title)
	case provgraph.KindSearchTerm:
		e.index.Add(textindex.DocID(n.ID), n.Text)
	case provgraph.KindDownload:
		e.index.Add(textindex.DocID(n.ID), n.URL, n.Text)
	case provgraph.KindFormEntry:
		e.index.Add(textindex.DocID(n.ID), n.Text)
	}
}

// Index exposes the engine's text index (used by the personalisation
// term analysis and by benchmarks). It is caught up to the store's
// current generation first.
func (e *Engine) Index() *textindex.Index {
	e.snapshot()
	return e.index
}

// Store returns the underlying provenance store.
func (e *Engine) Store() *provgraph.Store { return e.store }

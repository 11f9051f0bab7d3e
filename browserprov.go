// Package browserprov is a provenance-aware browser history library — a
// from-scratch reproduction of "The Case for Browser Provenance" (Margo
// & Seltzer, TaPP '09).
//
// It stores every kind of history object (pages, visits, bookmarks,
// downloads, search terms, form entries) as nodes of one homogeneous,
// versioned, acyclic provenance graph, and answers the paper's four
// use-case queries over it:
//
//   - contextual history search ("rosebud" finds Citizen Kane),
//   - personalised web search without sharing history with the engine,
//   - time-contextual search ("wine associated with plane tickets"),
//   - download lineage and descendant forensics.
//
// Quick start:
//
//	h, err := browserprov.Open("historydir")
//	...
//	h.Apply(&browserprov.Event{Type: browserprov.TypeVisit, ...})
//	v := h.View() // pin one epoch for the whole investigation
//	hits, meta, err := v.Search(ctx, "rosebud", 10)
//
// A View is pinned to one store generation: every query on it — Search,
// Personalize, TimeContextualSearch, DownloadLineage, Sessions, PQL via
// QueryOn — sees the same immutable snapshot, so multi-query forensics
// are transactionally consistent under concurrent writers. Queries take
// a context and per-call options (WithBudget, WithDepth, ...), and
// report Meta.Generation, Meta.Truncated and Meta.Canceled.
//
// Events come from any source: the bundled capture proxy (NewProxy),
// the simulated browser used by the experiments, or your own
// instrumentation.
package browserprov

import (
	"context"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"browserprov/internal/capture"
	"browserprov/internal/event"
	"browserprov/internal/export"
	"browserprov/internal/pql"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

// Event is one browsing action. See the Type* and Trans* constants.
type Event = event.Event

// Type discriminates events.
type Type = event.Type

// Event types.
const (
	TypeVisit       = event.TypeVisit
	TypeClose       = event.TypeClose
	TypeBookmarkAdd = event.TypeBookmarkAdd
	TypeDownload    = event.TypeDownload
	TypeSearch      = event.TypeSearch
	TypeFormSubmit  = event.TypeFormSubmit
	TypeTabOpen     = event.TypeTabOpen
)

// Transition is how a navigation happened.
type Transition = event.Transition

// Navigation transitions.
const (
	TransLink              = event.TransLink
	TransTyped             = event.TransTyped
	TransBookmark          = event.TransBookmark
	TransEmbed             = event.TransEmbed
	TransRedirectPermanent = event.TransRedirectPermanent
	TransRedirectTemporary = event.TransRedirectTemporary
	TransDownload          = event.TransDownload
	TransFramedLink        = event.TransFramedLink
	TransSearchResult      = event.TransSearchResult
	TransFormSubmit        = event.TransFormSubmit
	TransNewTab            = event.TransNewTab
)

// Node is one provenance graph node.
type Node = provgraph.Node

// NodeID identifies a node.
type NodeID = provgraph.NodeID

// Stats summarises the store.
type Stats = provgraph.Stats

// PageHit is a contextual search result.
type PageHit = query.PageHit

// TermSuggestion is a personalisation result.
type TermSuggestion = query.TermSuggestion

// TimeHit is a time-contextual search result.
type TimeHit = query.TimeHit

// Lineage is a download-lineage answer.
type Lineage = query.Lineage

// Meta describes a query execution (latency, generation, truncation,
// cancellation).
type Meta = query.Meta

// QueryResult is a PQL result.
type QueryResult = pql.Result

// Options tunes query behaviour; the zero value gives the paper's
// defaults (200 ms budget, depth-3 expansion, lens view). Any knob can
// be overridden per query call with the With* options.
type Options = query.Options

// View is a snapshot-pinned read handle over the history; see
// History.View.
type View = query.View

// Option is a per-call query option.
type Option = query.Option

// Per-call query options, applied on top of the engine's base Options
// for one call only — same snapshot, same text index, no rebuild.
var (
	WithBudget             = query.WithBudget
	WithDecay              = query.WithDecay
	WithDepth              = query.WithDepth
	WithMaxNodes           = query.WithMaxNodes
	WithHITS               = query.WithHITS
	WithRawGraph           = query.WithRawGraph
	WithRecognizableVisits = query.WithRecognizableVisits
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrNoSuchDownload reports a lineage query for a path or node that
	// is not a download.
	ErrNoSuchDownload = query.ErrNoSuchDownload
	// ErrClosed reports a query against a closed History.
	ErrClosed = query.ErrClosed
	// ErrBadQuery reports an unparseable PQL query.
	ErrBadQuery = query.ErrBadQuery
	// ErrNoSuchGeneration reports ViewAt of a generation no longer
	// retained.
	ErrNoSuchGeneration = query.ErrNoSuchGeneration
)

// History is a provenance-aware browser history: the homogeneous graph
// store plus the query engine. It is safe for concurrent use: queries
// run lock-free against immutable epoch snapshots of the graph, so
// concurrent searches never contend with each other — only snapshot
// refresh synchronises with writers.
type History struct {
	store *provgraph.Store
	opts  Options

	// closed flips on Close; Views created afterwards fail ErrClosed.
	closed atomic.Bool

	// engine is created lazily on first query and replaced wholesale
	// when the text index must be rebuilt (after expiration). All
	// finer-grained refresh (snapshotting, incremental indexing) lives
	// inside the engine itself.
	engine atomic.Pointer[query.Engine]
}

// StoreOptions tunes how the on-disk store underneath a History is
// opened: versioning mode, the WAL group-commit window, and whether the
// checkpoint is memory-mapped (the default) or read into the heap.
type StoreOptions = provgraph.Options

// MappedInfo reports how many checkpoint bytes a store serves straight
// off a file mapping versus from heap buffers.
type MappedInfo = provgraph.MappedInfo

// Open opens (or creates) a history in dir with default options.
func Open(dir string) (*History, error) { return OpenWith(dir, Options{}) }

// OpenWith opens (or creates) a history in dir.
func OpenWith(dir string, opts Options) (*History, error) {
	return OpenWithStore(dir, StoreOptions{}, opts)
}

// OpenWithStore is OpenWith with explicit store options — e.g.
// StoreOptions{NoMmap: true} forces the checkpoint into one heap buffer
// instead of a file mapping.
func OpenWithStore(dir string, sopts StoreOptions, opts Options) (*History, error) {
	s, err := provgraph.OpenWith(dir, sopts)
	if err != nil {
		return nil, err
	}
	return &History{store: s, opts: opts}, nil
}

// Close flushes and closes the history. Close is idempotent and safe
// under concurrent use: Views created after Close fail with ErrClosed,
// queries in flight at Close finish normally against their pinned
// snapshot, and new queries on already-held Views fail with ErrClosed.
// The checkpoint's file mapping is released once the last in-flight
// query finishes.
func (h *History) Close() error {
	h.closed.Store(true)
	return h.store.Close()
}

// Apply ingests one browsing event.
func (h *History) Apply(ev *Event) error { return h.store.Apply(ev) }

// ApplyBatch ingests a batch of browsing events as one group commit:
// one validation pass, one lock acquisition, one vectored WAL append
// and at most one fsync for the whole batch. Events fold into the graph
// in order, exactly as the equivalent sequence of Apply calls would —
// batching changes durability granularity (the batch is one commit),
// not semantics. High-rate capture paths should buffer into batches
// (see NewBatchingProxy) instead of calling Apply per event.
func (h *History) ApplyBatch(evs []*Event) error { return h.store.ApplyBatch(evs) }

// Checkpoint snapshots the store and truncates its log.
func (h *History) Checkpoint() error { return h.store.Checkpoint() }

// Sync forces buffered events to disk.
func (h *History) Sync() error { return h.store.Sync() }

// Stats returns node/edge counts.
func (h *History) Stats() Stats { return h.store.Snapshot().Stats() }

// SizeOnDisk returns the durable footprint in bytes.
func (h *History) SizeOnDisk() int64 { return h.store.SizeOnDisk() }

// MappedInfo reports the checkpoint residency split: bytes served
// straight off the file mapping versus bytes copied onto the heap.
func (h *History) MappedInfo() MappedInfo { return h.store.MappedInfo() }

// Graph exposes the underlying provenance store for advanced use (graph
// algorithms, raw edge inspection).
func (h *History) Graph() *provgraph.Store { return h.store }

// engineRef returns the query engine, creating it on first use. The
// engine keeps itself current: each View pin re-snapshots the store and
// catches the text index up incrementally only when the store's
// generation has moved, so this call is two atomic loads on the hot
// path and never serialises concurrent readers.
func (h *History) engineRef() *query.Engine {
	if e := h.engine.Load(); e != nil {
		return e
	}
	e := query.NewEngine(h.store, h.opts)
	if h.engine.CompareAndSwap(nil, e) {
		return e
	}
	return h.engine.Load()
}

// View pins the history's current epoch and returns the read handle the
// whole query API hangs off. Every query on the returned View sees the
// same generation; concurrent writers never move it. On a closed
// History the View's queries fail with ErrClosed (check View.Err to
// find out eagerly).
func (h *History) View() *View {
	if h.closed.Load() {
		return query.ErrorView(ErrClosed)
	}
	return h.engineRef().View()
}

// ViewAt pins a recently retained past generation (the engine keeps the
// last few); queries on the result fail with ErrNoSuchGeneration if gen
// is gone.
func (h *History) ViewAt(gen uint64) *View {
	if h.closed.Load() {
		return query.ErrorView(ErrClosed)
	}
	return h.engineRef().ViewAt(gen)
}

// QueryOn evaluates a PQL provenance path query on a pinned View, e.g.
//
//	first ancestor of download("/downloads/x.exe") where recognizable
//	descendants(url("http://shady.example/")) where kind = download
//
// Parse errors wrap ErrBadQuery; a missing download source wraps
// ErrNoSuchDownload.
func QueryOn(ctx context.Context, v *View, src string, opts ...Option) (QueryResult, Meta, error) {
	return pql.Eval(ctx, v, src, opts...)
}

// DownloadBySavePath finds the download node saved at path via the
// store's save-path index (O(1); the most recent download wins when
// several share a path).
func (h *History) DownloadBySavePath(path string) (Node, bool) {
	return h.store.Snapshot().DownloadBySavePath(path)
}

// VerifyDAG checks the acyclicity invariant, returning a violating cycle
// or nil.
func (h *History) VerifyDAG() []NodeID { return h.store.VerifyDAG() }

// OpenBetween returns visit nodes opened in [lo, hi).
func (h *History) OpenBetween(lo, hi time.Time) []NodeID {
	return h.store.Snapshot().OpenBetween(lo, hi)
}

// NewProxy returns an HTTP forward proxy (http.Handler) that captures
// browsing provenance into the history. searchHosts lists hosts whose
// "q" query parameter should be treated as web searches.
func (h *History) NewProxy(searchHosts []string) http.Handler {
	return capture.NewProxy(capture.NewObserver(searchHosts, h.Apply))
}

// NewBatchingProxy is NewProxy with captured events buffered into
// batches of up to batch events and ingested through ApplyBatch — one
// group commit per batch instead of a commit per observed exchange.
// The returned flush delivers any buffered events immediately; call it
// at shutdown (buffered events are not yet durable) and on a timer if
// capture is bursty.
func (h *History) NewBatchingProxy(searchHosts []string, batch int) (http.Handler, func() error) {
	b := capture.NewBatcher(batch, h.ApplyBatch)
	return capture.NewProxy(capture.NewObserver(searchHosts, b.Add)), b.Flush
}

// ExpireBefore removes history older than cutoff the provenance-aware
// way: downloads, bookmarks and their full ancestor lineage survive
// regardless of age, and splice edges preserve reachability between
// retained nodes. The result is checkpointed immediately. It returns the
// number of nodes removed.
func (h *History) ExpireBefore(cutoff time.Time) (int, error) {
	removed, err := h.store.ExpireBefore(cutoff)
	// The text index may reference expired nodes; drop the engine so the
	// next query rebuilds a clean one. In-flight queries finish against
	// the old engine's snapshot, which stays valid (immutable) even as
	// its index serves stale doc IDs — those miss on NodeByID and fall
	// out of results.
	h.engine.Store(nil)
	return removed, err
}

// Session is a reconstructed browsing sitting.
type Session = query.Session

// SessionSummary describes a session for display.
type SessionSummary = query.SessionSummary

// ExportOptions selects what graph exports include.
type ExportOptions = export.Options

// WriteDOT writes the history graph (or, with Roots set, a neighborhood)
// in Graphviz DOT form for visual forensics.
func (h *History) WriteDOT(w io.Writer, o ExportOptions) error {
	return export.WriteDOT(w, h.store.Snapshot(), o)
}

// WriteJSON writes the graph as newline-delimited JSON (one node or edge
// per line) for downstream analysis.
func (h *History) WriteJSON(w io.Writer, o ExportOptions) error {
	return export.WriteJSON(w, h.store.Snapshot(), o)
}

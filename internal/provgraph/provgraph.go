// Package provgraph implements the paper's primary contribution: a
// single, homogeneous provenance graph store for every kind of browser
// history object (§3.4).
//
// Pages, page-visit instances, bookmarks, downloads, search terms and
// form entries are all nodes of one graph; link traversals, typed
// navigations, bookmark clicks, redirects, embedded content, downloads
// and search descents are all typed, time-stamped edges. Cycles in the
// page/link structure are broken by versioning: each visit is a new
// instance node, and every edge points from an earlier instance to a
// strictly later one, so the graph is acyclic by construction (§3.1).
// Visits carry open and close timestamps (§3.2), enabling the
// time-overlap relationships the paper's time-contextual search needs.
//
// The store journals raw browsing events (so the WAL doubles as a full
// activity log) and checkpoints the materialised graph through
// internal/storage. Its snapshots implement graph.Graph, so every
// algorithm in internal/graph runs on them directly.
package provgraph

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/graph"
	"browserprov/internal/storage"
	"browserprov/internal/textindex"
)

// NodeID aliases graph.NodeID; provenance node IDs are dense from 1.
type NodeID = graph.NodeID

// NodeKind enumerates the heterogeneous history objects stored as
// homogeneous graph nodes (§3.3).
type NodeKind int

const (
	// KindPage is a page identity: one node per distinct URL. Page nodes
	// anchor their visit instances but do not participate in provenance
	// edges themselves (versioning happens at the visit level).
	KindPage NodeKind = iota + 1
	// KindVisit is one page-visit instance (a version of a page, §3.1).
	KindVisit
	// KindBookmark is a bookmark object.
	KindBookmark
	// KindDownload is a downloaded file.
	KindDownload
	// KindSearchTerm is a user-issued search query string (§3.3).
	KindSearchTerm
	// KindFormEntry is a submitted form's content (§3.3).
	KindFormEntry
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case KindPage:
		return "page"
	case KindVisit:
		return "visit"
	case KindBookmark:
		return "bookmark"
	case KindDownload:
		return "download"
	case KindSearchTerm:
		return "search-term"
	case KindFormEntry:
		return "form-entry"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// EdgeKind enumerates provenance relationships. Navigation kinds reuse
// the event.Transition vocabulary; the remaining kinds cover the
// relationships the paper promotes to first-class (§3.2–3.3).
type EdgeKind int

const (
	// Navigation edge kinds (values mirror event.Transition).
	EdgeLink              = EdgeKind(event.TransLink)
	EdgeTyped             = EdgeKind(event.TransTyped)
	EdgeBookmarkClick     = EdgeKind(event.TransBookmark)
	EdgeEmbed             = EdgeKind(event.TransEmbed)
	EdgeRedirectPermanent = EdgeKind(event.TransRedirectPermanent)
	EdgeRedirectTemporary = EdgeKind(event.TransRedirectTemporary)
	EdgeDownloadNav       = EdgeKind(event.TransDownload)
	EdgeFramedLink        = EdgeKind(event.TransFramedLink)
	EdgeSearchResult      = EdgeKind(event.TransSearchResult)
	EdgeFormSubmitNav     = EdgeKind(event.TransFormSubmit)
	EdgeNewTab            = EdgeKind(event.TransNewTab)

	// Object edge kinds.
	edgeObjectBase EdgeKind = 100
	// EdgeSearchIssued connects the visit where the user typed a search
	// to the search-term node.
	EdgeSearchIssued EdgeKind = 101
	// EdgeSearchResults connects a search-term node to the visit of the
	// results page it produced.
	EdgeSearchResults EdgeKind = 102
	// EdgeBookmarkCreate connects the visit being bookmarked to the
	// bookmark node.
	EdgeBookmarkCreate EdgeKind = 103
	// EdgeDownloadOf connects the visit a download originated from to the
	// download node.
	EdgeDownloadOf EdgeKind = 104
	// EdgeFormFilled connects the visit where a form was filled to the
	// form-entry node.
	EdgeFormFilled EdgeKind = 105
	// EdgeFormResults connects a form-entry node to the visit its
	// submission produced.
	EdgeFormResults EdgeKind = 106
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	if k < edgeObjectBase {
		return event.Transition(k).String()
	}
	switch k {
	case EdgeSearchIssued:
		return "search-issued"
	case EdgeSearchResults:
		return "search-results"
	case EdgeBookmarkCreate:
		return "bookmark-create"
	case EdgeDownloadOf:
		return "download-of"
	case EdgeFormFilled:
		return "form-filled"
	case EdgeFormResults:
		return "form-results"
	default:
		return fmt.Sprintf("edge(%d)", int(k))
	}
}

// IsAutomatic reports whether the relationship was not the result of a
// user action (redirects, inner content; §3.2). The personalisation lens
// splices these out.
func (k EdgeKind) IsAutomatic() bool {
	return k == EdgeRedirectPermanent || k == EdgeRedirectTemporary ||
		k == EdgeEmbed || k == EdgeFramedLink
}

// Node is one homogeneous provenance node.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// URL is set for pages, visits and downloads (source URL).
	URL string
	// Title is set for pages and visits when known.
	Title string
	// Text holds a search term, form content, or a download's save path.
	Text string
	// Open is when the node came into being (visit open time, bookmark
	// creation, download completion, first issue of a search term).
	Open time.Time
	// Close is when a visit left display (§3.2). Zero means the visit is
	// still open or the close was never observed.
	Close time.Time
	// Page links a visit instance to its page identity node.
	Page NodeID
	// VisitSeq is the 1-based index of this visit among its page's
	// visits (the "version number" of §3.1).
	VisitSeq int
	// Via is the transition that created a visit instance (the kind of
	// its incoming navigation, recorded even when no origin node exists,
	// e.g. the first typed navigation of a session).
	Via EdgeKind
}

// Edge is one provenance relationship.
type Edge struct {
	From NodeID
	To   NodeID
	Kind EdgeKind
	// At is the edge timestamp (the action time).
	At time.Time
}

// VersioningMode selects the §3.1 cycle-breaking scheme (experiment E5).
type VersioningMode int

const (
	// VersionNodes (the default, what PASS does): every visit is a new
	// node instance; edges connect instances, so the graph is a DAG by
	// construction.
	VersionNodes VersioningMode = iota
	// VersionEdges: one node per page; edges carry timestamps and cycles
	// are broken only by the traversal-order the timestamps induce. The
	// node graph itself may be cyclic.
	VersionEdges
)

// String implements fmt.Stringer.
func (m VersioningMode) String() string {
	if m == VersionEdges {
		return "edge-timestamps"
	}
	return "versioned-nodes"
}

// Options configures a Store.
type Options struct {
	// Mode selects the versioning scheme. Default VersionNodes.
	Mode VersioningMode
	// SyncEvery controls the journal's group-commit window: the WAL is
	// fsynced after this many commits (an Apply is one commit, an
	// ApplyBatch is one commit regardless of size). 1 means every
	// commit is durable before the call returns; the default, 0, is
	// treated as 256.
	SyncEvery int
	// NoMmap disables memory-mapping the checkpoint at open: the file is
	// read into one heap buffer instead. Column decoding is identical;
	// only the residency of the backing bytes changes. Default off
	// (mapping on where the platform supports it).
	NoMmap bool
	// DedupWindow is the capacity of the ingest event-ID dedup window
	// (see ApplyBatchDedup). 0 means the default (65536 IDs).
	DedupWindow int
	// FS, when set, interposes on the journal's commit path (WAL and
	// metadata writes). internal/faultfs uses it to inject disk faults
	// in crash-consistency tests; nil means the real filesystem.
	FS storage.VFS
	// Replica opens the store as a read-only replica: direct mutations
	// (Apply, ApplyBatch, ApplyBatchDedup) fail with ErrReplica, and the
	// only write path is ReplicateRecord, which replays WAL records
	// shipped from a leader at the leader's LSNs. See replica.go.
	Replica bool
	// RetainPrevCheckpoint keeps one previous-generation checkpoint file
	// and lags the WAL trim by one checkpoint, so a store whose current
	// checkpoint later fails an integrity scrub can be repaired losslessly
	// (fall back to the previous generation + WAL replay — see
	// RepairStore). Costs one extra checkpoint file on disk plus one
	// checkpoint interval of WAL. Default off.
	RetainPrevCheckpoint bool
}

// ErrClosed reports an operation against a closed Store. The query
// package's ErrClosed is this same sentinel, so errors.Is works across
// layers.
var ErrClosed = errors.New("provgraph: store is closed")

// Store is the provenance graph store.
type Store struct {
	// ckptMu serialises whole checkpoint operations (and the wholesale
	// rewrites that must not interleave with one). Lock order: ckptMu
	// before mu, always.
	ckptMu sync.Mutex
	mu     sync.RWMutex
	j      *storage.Journal

	mode    VersioningMode
	replica bool // opened with Options.Replica; see replica.go

	// w is the write side: a live tail over the capture an in-flight
	// reseal is flattening (w.base) or else over the sealed epoch
	// (w.sealed). The store's own reads go through it, along the same
	// lookup chain snapshots use (see epoch.go and tail.go).
	w        chain
	numNodes int
	numEdges int

	// Epoch-snapshot state (see epoch.go). gen is bumped on every
	// mutation.
	gen      atomic.Uint64
	snap     atomic.Pointer[Snapshot]
	sealSeq  uint64        // bumped by retention to abort stale publishes
	sealDone chan struct{} // closed when the in-flight reseal finishes
	sealGate chan struct{} // test hook: reseals block on it before publishing

	// Checkpoint plumbing. textSource, when set (by the query engine),
	// serialises the text index restricted to a watermark so checkpoints
	// can carry it; recoveredText holds the postings a checkpoint load
	// found, until the first engine claims them.
	textSource      func(maxDoc NodeID) (payload []byte, watermark NodeID)
	recoveredText   []byte
	recoveredTextWM NodeID
	// ckptGen is the generation the last successful checkpoint this
	// process wrote captured; a Checkpoint at the same generation is a
	// no-op. Only valid in-process (ckptGenValid) — a checkpoint
	// inherited at open never suppresses a fresh dump.
	ckptGen      uint64
	ckptGenValid bool

	// enc is the WAL encode buffer, reused across events (guarded by mu).
	enc storage.Encoder

	// Checkpoint-residency accounting for MappedInfo: how many bytes the
	// last load left backed by the file mapping vs materialised on the
	// heap.
	mappedBytes   int64
	heapLoadBytes int64

	// sect is the checkpoint file view the load-time aliases (column
	// arrays, strings, recovered text postings) point into. The store
	// owns one reference; it is released when the store closes AND the
	// last pinned read finishes, never before — see PinRead/unpin.
	sect *storage.SectionFile

	// closed flips once in Close; every subsequent mutation, checkpoint
	// and new read pin fails with ErrClosed. pins counts the store's own
	// liveness reference (1 while open) plus one per in-flight pinned
	// read; the transition to 0 — which can happen on a reader's
	// goroutine when Close overlaps a query — releases sect.
	closed atomic.Bool
	pins   atomic.Int64

	// Assembly state (per-tab), part of the persistent state because it
	// is reconstructed deterministically from the event log. embedOnly
	// (VersionEdges only) holds the pages that have only ever loaded as
	// inner content, which lastVisit needs.
	tabCur        map[int]NodeID
	pendingSearch map[int]pending
	pendingForm   map[int]pending
	embedOnly     map[NodeID]struct{}

	// dedup is the sliding window of recently applied ingest event IDs
	// (see dedup.go). Persistent state: IDs ride the WAL records of the
	// events they key and the checkpoint's dedup section.
	dedup dedupWindow

	// Online scrub state (see scrub.go): the sweep cursor and cumulative
	// counters, both guarded by scrubMu (one scrub step at a time).
	scrubMu   sync.Mutex
	scrubCur  scrubCursor
	scrubStat ScrubStatus
}

type pending struct {
	node NodeID
	url  string
}

// Open opens (or creates) a provenance store in dir with default options.
func Open(dir string) (*Store, error) { return OpenWith(dir, Options{}) }

// OpenWith opens (or creates) a provenance store in dir.
func OpenWith(dir string, opts Options) (*Store, error) {
	s := &Store{
		mode:          opts.Mode,
		replica:       opts.Replica,
		w:             chain{t: newTail(0)},
		tabCur:        make(map[int]NodeID),
		pendingSearch: make(map[int]pending),
		pendingForm:   make(map[int]pending),
		embedOnly:     make(map[NodeID]struct{}),
		dedup:         newDedupWindow(opts.DedupWindow),
	}
	s.pins.Store(1)
	j, err := storage.OpenJournal(dir, "provgraph", storage.JournalCallbacks{
		LoadSections: s.loadSections,
		MapSnapshot:  !opts.NoMmap,
		Replay:       s.replayEvent,
		FS:           opts.FS,
		RetainPrev:   opts.RetainPrevCheckpoint,
	})
	if err != nil {
		if s.sect != nil {
			s.sect.Close()
		}
		return nil, err
	}
	j.SyncEvery = opts.SyncEvery
	s.j = j
	return s, nil
}

// MappedInfo reports where the bytes of the loaded checkpoint live.
type MappedInfo struct {
	// MappedBytes is the checkpoint footprint served by the read-only
	// file mapping (resident at the kernel's discretion, reclaimable).
	MappedBytes int64 `json:"mapped_bytes"`
	// HeapBytes estimates checkpoint-derived bytes materialised on the
	// Go heap at load: the whole file when mapping was off, plus the
	// edge attribute slices and the visit timeline, which every load
	// decodes. Writes never add to it: they go to a tail over the loaded
	// columns.
	HeapBytes int64 `json:"heap_load_bytes"`
}

// MappedInfo returns the store's checkpoint-residency split.
func (s *Store) MappedInfo() MappedInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return MappedInfo{MappedBytes: s.mappedBytes, HeapBytes: s.heapLoadBytes}
}

// Close flushes and closes the store, waiting for any in-flight
// background checkpoint or reseal to finish first. Close is idempotent
// and safe under concurrent use: a second (or racing) Close returns
// nil, operations racing Close either complete against the open store
// or fail with ErrClosed, and the checkpoint file view is released only
// after the last pinned read finishes — a query that pinned before
// Close keeps valid mapped memory for its whole run.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.ckptMu.Lock()
	s.mu.Lock()
	err := s.j.Close()
	s.mu.Unlock()
	s.ckptMu.Unlock()
	s.WaitReseal()
	// Drop the store's own liveness pin. If no reads are in flight this
	// releases the checkpoint view (unmapping it) right here; otherwise
	// the last reader's unpin does.
	s.unpin()
	return err
}

// PinRead pins the store's checkpoint view for a read: while the
// returned release function has not been called, the mapped checkpoint
// bytes every snapshot aliases stay valid even if Close runs
// concurrently. It fails with ErrClosed once Close has begun. release
// must be called exactly once.
func (s *Store) PinRead() (release func(), err error) {
	for {
		n := s.pins.Load()
		if n <= 0 || s.closed.Load() {
			return nil, ErrClosed
		}
		if s.pins.CompareAndSwap(n, n+1) {
			return s.unpin, nil
		}
	}
}

// unpin drops one pin; the holder of the final pin releases the
// checkpoint file view. Only one goroutine can observe the 0
// transition, and PinRead never resurrects a zero count, so the release
// is exclusive.
func (s *Store) unpin() {
	if s.pins.Add(-1) != 0 {
		return
	}
	if s.sect != nil {
		s.sect.Close()
		s.sect = nil
	}
}

// Sync forces journaled events to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	return s.j.Sync()
}

// Checkpoint writes a checkpoint (the raw-column schema of
// checkpoint.go) and drops the WAL prefix it covers. Writers are not
// blocked for the dump: the call takes the write lock only to capture
// an immutable snapshot of the current generation (O(tail)), an O(tabs)
// assembly copy and the WAL fence, then flattens and streams the
// columnar sections in the background, and finally re-takes the lock
// for the atomic metadata swap. A crash mid-write leaves the previous
// checkpoint live; recovery proceeds from it plus the WAL.
//
// The caller observes a synchronous Checkpoint (the call returns once
// the new checkpoint is durable), but concurrent Apply/ApplyBatch
// proceed throughout the dump. Checkpoints are serialised: a second
// concurrent call waits for the first.
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	s.mu.Lock()
	// Idle skip: if nothing moved since the last checkpoint this
	// process wrote, the file on disk is already exact — a periodic
	// -checkpoint-every tick on a quiet daemon costs two lock
	// acquisitions, not a graph flatten and a multi-MB rewrite.
	if s.ckptGenValid && s.gen.Load() == s.ckptGen {
		s.mu.Unlock()
		return nil
	}
	sn := s.snapshotLocked()
	asm := s.captureAssemblyLocked()
	textSource := s.textSource
	ticket, err := s.j.BeginCheckpoint()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// Off-lock: flatten the capture into pure columnar arrays and
	// stream the sections.
	ep := sn.flatEpoch()
	var text []byte
	var textWM NodeID
	if textSource != nil {
		text, textWM = textSource(sn.maxID)
	}
	if err := ticket.WriteSections(func(w *storage.SectionWriter) error {
		return writeSnapshotV3(w, ep, asm, text, textWM)
	}); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.j.CommitCheckpoint(ticket); err != nil {
		return err
	}
	s.ckptGen, s.ckptGenValid = sn.gen, true
	return nil
}

// SetTextCheckpointSource registers the function checkpoints call (off
// the store lock) to obtain serialized text-index postings restricted
// to the checkpoint's node watermark. The query engine registers itself
// here so cold opens can warm-start textual search.
func (s *Store) SetTextCheckpointSource(fn func(maxDoc NodeID) (payload []byte, watermark NodeID)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.textSource = fn
}

// RecoveredTextIndex hands over the text-index postings the last open
// recovered from the checkpoint, parsed and ready, plus the node
// watermark they cover. The payload is consumed: only the first caller
// (the engine that will own the index) receives it; corrupt payloads
// are dropped silently — the engine then rebuilds from scratch, which
// is slower but always correct.
func (s *Store) RecoveredTextIndex() (*textindex.Index, NodeID, bool) {
	s.mu.Lock()
	payload, wm := s.recoveredText, s.recoveredTextWM
	s.recoveredText = nil
	s.mu.Unlock()
	if payload == nil {
		return nil, 0, false
	}
	// Frozen load: the index serves queries straight off the payload
	// (which aliases the mapped checkpoint when the store is mapped);
	// nodes indexed past the watermark go to a small map-form delta.
	ix, err := textindex.LoadFrozen(payload)
	if err != nil {
		return nil, 0, false
	}
	return ix, wm, true
}

// CheckpointInfo describes the store's durable checkpoint state.
type CheckpointInfo struct {
	// Bytes is the size of the current checkpoint file (0 if none).
	Bytes int64
	// WALBytes is the size of the log tail not covered by it.
	WALBytes int64
	// LastAt is when the current checkpoint was written (the file mtime
	// for checkpoints inherited at open; zero if there is none).
	LastAt time.Time
}

// CheckpointInfo reports checkpoint size and age for monitoring.
func (s *Store) CheckpointInfo() CheckpointInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return CheckpointInfo{
		Bytes:    s.j.SnapshotSize(),
		WALBytes: s.j.WALSize(),
		LastAt:   s.j.SnapshotTime(),
	}
}

// SizeOnDisk returns the durable footprint in bytes (experiment E1).
func (s *Store) SizeOnDisk() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.SizeOnDisk()
}

// Mode returns the versioning mode the store was opened with.
func (s *Store) Mode() VersioningMode { return s.mode }

// Apply journals ev and folds it into the graph. One Apply is one
// commit: with SyncEvery=1 it is durable before the call returns.
func (s *Store) Apply(ev *event.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.replica {
		return ErrReplica
	}
	s.enc.Reset()
	encodeEventInto(&s.enc, ev)
	if err := s.j.Log(s.enc.Bytes()); err != nil {
		return err
	}
	s.applyEvent(ev)
	s.maybeReseal()
	return nil
}

// ErrInvalidBatch reports an ApplyBatch rejected during the up-front
// validation pass: nothing was logged or applied. Callers can match it
// with errors.Is to distinguish the safe-to-retry-per-event case from
// an I/O failure, after which a prefix of the batch IS applied.
var ErrInvalidBatch = errors.New("provgraph: invalid event in batch")

// ApplyBatch journals and folds a batch of events under one lock
// acquisition and one group commit: every event is validated up front
// (an invalid event rejects the whole batch, wrapped in
// ErrInvalidBatch, before anything is logged), the WAL append streams
// through the store's reusable encode scratch, and the batch counts as
// a single commit toward the journal's SyncEvery window — so with
// SyncEvery=1 the batch costs one fsync instead of len(evs).
//
// Durability is batched, atomicity is not: if the log append fails
// partway (I/O error), the events already appended are applied in
// memory — keeping the store consistent with the durable prefix — and
// the error (not ErrInvalidBatch) is returned.
func (s *Store) ApplyBatch(evs []*event.Event) error {
	if len(evs) == 0 {
		return nil
	}
	for i, ev := range evs {
		if err := ev.Validate(); err != nil {
			return fmt.Errorf("%w %d: %v", ErrInvalidBatch, i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if s.replica {
		return ErrReplica
	}
	logged, err := s.j.LogBatch(len(evs), func(i int) []byte {
		s.enc.Reset()
		encodeEventInto(&s.enc, evs[i])
		return s.enc.Bytes()
	})
	for _, ev := range evs[:logged] {
		s.applyEvent(ev)
	}
	s.maybeReseal()
	return err
}

// replayEvent is the journal recovery path. Dedup-keyed records carry
// the ingest event ID ahead of the event payload; replaying one
// restores the ID to the window in the same step that re-applies its
// event, so the recovered store rejects the same retries the live store
// would have.
func (s *Store) replayEvent(payload []byte) error {
	id, ev, err := decodeWALRecord(payload)
	if err != nil {
		return err
	}
	s.applyEvent(ev)
	if id != "" {
		s.dedup.add(id)
	}
	return nil
}

// ---- assembly ----

// newNode appends n to the write side as the next node ID.
func (s *Store) newNode(n Node) NodeID {
	s.w.addNode(n)
	s.numNodes++
	return s.w.maxID
}

// node returns the write side's current copy of node id.
func (s *Store) node(id NodeID) Node {
	n, _ := s.w.NodeByID(id)
	return n
}

// addEdge inserts a provenance edge and maintains both adjacency views.
func (s *Store) addEdge(from, to NodeID, kind EdgeKind, at time.Time) {
	if from == 0 || to == 0 || from == to {
		return
	}
	s.w.addEdge(Edge{From: from, To: to, Kind: kind, At: at})
	s.numEdges++
}

// ensurePage returns the page identity node for url, creating it at time
// at if needed; created reports whether it did.
func (s *Store) ensurePage(url, title string, at time.Time) (page NodeID, created bool) {
	if p, ok := s.w.PageByURL(url); ok {
		if p.Title == "" && title != "" {
			p.Title = title
			s.w.t.put(p)
		}
		return p.ID, false
	}
	return s.newNode(Node{Kind: KindPage, URL: url, Title: title, Open: at}), true
}

func (s *Store) applyEvent(in *event.Event) {
	// Every mutation moves the store to a new generation; lock-free
	// readers use this to decide when a cached snapshot went stale.
	defer s.gen.Add(1)
	// The journal keeps times in whole microseconds (storage.Encoder.Time),
	// so the graph stores the time a replay will decode, not the caller's
	// finer one: a live store and its reopened copy must hold the same
	// times. A finer time is folded on a copy; the caller's event is not
	// touched, and a replayed one is already whole.
	ev := in
	if t := microTime(micro(in.Time)); t != in.Time {
		e := *in
		e.Time = t
		ev = &e
	}
	switch ev.Type {
	case event.TypeVisit:
		s.applyVisit(ev)
	case event.TypeClose:
		s.applyClose(ev)
	case event.TypeBookmarkAdd:
		s.applyBookmarkAdd(ev)
	case event.TypeDownload:
		s.applyDownload(ev)
	case event.TypeSearch:
		s.applySearch(ev)
	case event.TypeFormSubmit:
		s.applyFormSubmit(ev)
	case event.TypeTabOpen:
		// The new tab's first visit arrives as TransNewTab; nothing to do
		// beyond what that visit records.
	}
}

// originFor locates the instance node a navigation came from: the current
// visit in the same tab when it matches the referrer (or when the
// navigation is typed/bookmark, where the "referrer" is simply the page
// the user was looking at), otherwise the most recent visit of the
// referrer URL in any tab, otherwise the referrer's lastVisit.
func (s *Store) originFor(ev *event.Event) NodeID {
	cur := s.tabCur[ev.Tab]
	if ev.Referrer == "" {
		// Typed/bookmark navigations carry no referrer; the context edge
		// still points from what was on screen in that tab (§3.2).
		if ev.Transition == event.TransTyped || ev.Transition == event.TransBookmark {
			return cur
		}
		return 0
	}
	if cur != 0 && s.node(cur).URL == ev.Referrer {
		return cur
	}
	// Another tab may hold the referrer (e.g. "open in new tab"). When
	// several do, the most recent visit wins: tabCur is a map, and
	// taking whichever its iteration yields first would make replaying
	// the same events (recovery, a follower) build a different graph.
	var best NodeID
	for _, v := range s.tabCur {
		if v > best && s.node(v).URL == ev.Referrer {
			best = v
		}
	}
	if best != 0 {
		return best
	}
	return s.lastVisit(ev.Referrer)
}

// lastVisit is the instance a URL resolves to when no tab shows it: the
// page's most recent visit that did not load as inner content (an embed
// or framed link). In VersionEdges mode the page is its own instance,
// unless it has only ever loaded as inner content. 0 when there is none.
//
// The value is derived from persisted state (visit lists and their Via
// column, and embedOnly), so a reopened store or a follower resolves
// exactly as the live store did. After ExpireBefore it can name an
// earlier retained visit when the latest one expired.
func (s *Store) lastVisit(url string) NodeID {
	p, ok := s.w.PageByURL(url)
	if !ok {
		return 0
	}
	if s.mode == VersionEdges {
		if _, inner := s.embedOnly[p.ID]; inner {
			return 0
		}
		return p.ID
	}
	vs := s.w.VisitsOfPage(p.ID)
	for i := len(vs) - 1; i >= 0; i-- {
		if via := s.node(vs[i]).Via; via != EdgeEmbed && via != EdgeFramedLink {
			return vs[i]
		}
	}
	return 0
}

func (s *Store) applyVisit(ev *event.Event) {
	page, created := s.ensurePage(ev.URL, ev.Title, ev.Time)
	origin := s.originFor(ev)
	// Inner content does not replace the page on display.
	inner := ev.Transition == event.TransEmbed || ev.Transition == event.TransFramedLink

	v := page
	if s.mode == VersionEdges {
		// E5 ablation: the page node doubles as the visit; edges carry
		// the time stamps and the node graph may be cyclic.
		if p := s.node(page); p.Open.IsZero() || ev.Time.Before(p.Open) {
			p.Open = ev.Time
			s.w.t.put(p)
		}
		if !inner {
			delete(s.embedOnly, page)
		} else if created {
			s.embedOnly[page] = struct{}{}
		}
	} else {
		n := Node{Kind: KindVisit, URL: ev.URL, Title: ev.Title, Open: ev.Time, Page: page,
			Via: EdgeKind(ev.Transition), VisitSeq: len(s.w.VisitsOfPage(page)) + 1}
		if inner {
			// An embed is never "open" in a tab; close it instantly.
			n.Close = ev.Time
		}
		v = s.newNode(n)
	}

	if origin != 0 {
		s.addEdge(origin, v, EdgeKind(ev.Transition), ev.Time)
	}

	// Bookmark clicks also descend from the bookmark object itself.
	if ev.Transition == event.TransBookmark {
		if b, ok := s.w.bookmarkID(ev.URL); ok {
			s.addEdge(b, v, EdgeBookmarkClick, ev.Time)
		}
	}

	// Resolve a pending search/form submission for this tab: the results
	// page descends from the term node.
	if p, ok := s.pendingSearch[ev.Tab]; ok && p.url == ev.URL {
		s.addEdge(p.node, v, EdgeSearchResults, ev.Time)
		delete(s.pendingSearch, ev.Tab)
	}
	if p, ok := s.pendingForm[ev.Tab]; ok && p.url == ev.URL {
		s.addEdge(p.node, v, EdgeFormResults, ev.Time)
		delete(s.pendingForm, ev.Tab)
	}

	if inner {
		return
	}
	// The navigation replaces the tab's current page: close it (§3.2).
	if s.mode == VersionNodes {
		if prev := s.tabCur[ev.Tab]; prev != 0 && prev != v {
			s.closeVisit(prev, ev.Time)
		}
	}
	s.tabCur[ev.Tab] = v
}

// closeVisit records the close time of a visit that is still open.
func (s *Store) closeVisit(id NodeID, at time.Time) {
	if n := s.node(id); n.Close.IsZero() {
		n.Close = at
		s.w.t.put(n)
	}
}

func (s *Store) applyClose(ev *event.Event) {
	cur := s.tabCur[ev.Tab]
	if cur == 0 {
		return
	}
	if s.mode == VersionNodes {
		s.closeVisit(cur, ev.Time)
	}
	delete(s.tabCur, ev.Tab)
}

func (s *Store) applyBookmarkAdd(ev *event.Event) {
	b := s.newNode(Node{Kind: KindBookmark, URL: ev.URL, Title: ev.Title, Open: ev.Time})
	// The bookmark descends from the visit being bookmarked.
	origin := s.tabCur[ev.Tab]
	if origin == 0 || s.node(origin).URL != ev.URL {
		origin = s.lastVisit(ev.URL)
	}
	s.addEdge(origin, b, EdgeBookmarkCreate, ev.Time)
}

func (s *Store) applyDownload(ev *event.Event) {
	d := s.newNode(Node{Kind: KindDownload, URL: ev.URL, Text: ev.SavePath, Title: ev.ContentType, Open: ev.Time})
	origin := s.tabCur[ev.Tab]
	if ev.Referrer != "" {
		if o := s.lastVisit(ev.Referrer); o != 0 {
			origin = o
		}
	}
	s.addEdge(origin, d, EdgeDownloadOf, ev.Time)
}

func (s *Store) applySearch(ev *event.Event) {
	// Every issuance creates a fresh term instance. Reusing one node per
	// term string would let a visit that descends from the term's
	// earlier results point back at it — exactly the cycle class §3.1
	// breaks by versioning ("a new version of some object in the cycle
	// must be created"). The term lookup tracks the latest instance.
	seq := 1
	if prev, ok := s.w.TermNode(ev.Terms); ok {
		seq = prev.VisitSeq + 1
	}
	t := s.newNode(Node{Kind: KindSearchTerm, Text: ev.Terms, Open: ev.Time, VisitSeq: seq})
	// The term descends from the visit where it was issued.
	s.addEdge(s.tabCur[ev.Tab], t, EdgeSearchIssued, ev.Time)
	s.pendingSearch[ev.Tab] = pending{node: t, url: ev.URL}
}

func (s *Store) applyFormSubmit(ev *event.Event) {
	f := s.newNode(Node{Kind: KindFormEntry, Text: ev.Terms, URL: ev.URL, Open: ev.Time})
	s.addEdge(s.tabCur[ev.Tab], f, EdgeFormFilled, ev.Time)
	s.pendingForm[ev.Tab] = pending{node: f, url: ev.URL}
}

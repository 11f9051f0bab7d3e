// Package places implements the baseline history store: a from-scratch
// reimplementation of the logical schema of Mozilla Firefox 3's "Places"
// system (moz_places, moz_historyvisits, moz_bookmarks, moz_inputhistory,
// moz_annos, moz_keywords) over the journal in internal/storage.
//
// Places is the paper's baseline: its provenance schema is measured as a
// 39.5 % storage overhead *over Places* (§4). This package therefore
// mirrors what Firefox records — visits chained by from_visit with a
// transition type, bookmarks and downloads in separate side tables — and
// deliberately does NOT record the relationships the paper says browsers
// miss (typed-location edges, open/close intervals, search-term nodes).
//
// The tables live in memory; every mutation is logged to the journal's
// WAL, and a checkpoint writes every row as one length-prefixed record
// of a single section. Experiment E1 sizes the same records as a heap-
// file dump (RecordDumpBytes), the substrate it measures the provenance
// schema on too.
package places

import (
	"sort"
	"strings"
	"sync"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// PlaceID identifies a row of moz_places (a unique URL).
type PlaceID uint64

// VisitID identifies a row of moz_historyvisits.
type VisitID uint64

// Place is a moz_places row: one per distinct URL.
type Place struct {
	ID         PlaceID
	URL        string
	Title      string
	RevHost    string // host reversed, as Places stores it, for suffix scans
	VisitCount int
	Typed      int // count of typed visits
	Frecency   int
	LastVisit  time.Time
}

// Visit is a moz_historyvisits row: one per page load.
type Visit struct {
	ID        VisitID
	FromVisit VisitID // 0 when there is no referrer visit
	Place     PlaceID
	Date      time.Time
	Type      event.Transition
}

// Bookmark is a moz_bookmarks row.
type Bookmark struct {
	ID        uint64
	Place     PlaceID
	Title     string
	DateAdded time.Time
}

// InputHistory is a moz_inputhistory row: what the user typed in the
// location bar to reach a place, with a decaying use count.
type InputHistory struct {
	Place    PlaceID
	Input    string
	UseCount float64
}

// Anno is a moz_annos row. Firefox 3 records downloads as annotations
// (downloads/destinationFileURI and friends) rather than history edges,
// which is exactly the disconnect §2.4 complains about.
type Anno struct {
	ID        uint64
	Place     PlaceID
	Name      string
	Content   string
	DateAdded time.Time
}

// Download annotation names, following Firefox's naming.
const (
	AnnoDownloadDest = "downloads/destinationFileURI"
	AnnoDownloadMime = "downloads/destinationFileMimeType"
)

// Store is the Places database. All mutations are journaled; the store
// is safe for concurrent use.
type Store struct {
	mu sync.RWMutex
	j  *storage.Journal

	places    map[PlaceID]*Place
	visits    map[VisitID]*Visit
	bookmarks []Bookmark
	inputs    []InputHistory
	annos     []Anno

	urlIndex   map[string]PlaceID
	placeVisit map[PlaceID][]VisitID

	nextPlace PlaceID
	nextVisit VisitID
	nextRow   uint64 // bookmarks + annos share a row counter
}

// Open opens (or creates) a Places store in dir.
func Open(dir string) (*Store, error) {
	s := &Store{
		places:     make(map[PlaceID]*Place),
		visits:     make(map[VisitID]*Visit),
		urlIndex:   make(map[string]PlaceID),
		placeVisit: make(map[PlaceID][]VisitID),
		nextPlace:  1,
		nextVisit:  1,
		nextRow:    1,
	}
	j, err := storage.OpenJournal(dir, "places", storage.JournalCallbacks{
		LoadSections: s.loadSections,
		Replay:       s.applyOp,
	})
	if err != nil {
		return nil, err
	}
	s.j = j
	return s, nil
}

// Close flushes and closes the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}

// Sync forces journaled mutations to disk.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Sync()
}

// Checkpoint writes every row into the records section of a fresh
// checkpoint and drops the WAL prefix it covers. Writers wait for it.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, err := s.j.BeginCheckpoint()
	if err != nil {
		return err
	}
	if err := t.WriteSections(func(w *storage.SectionWriter) error {
		return w.WriteSection(secRecords, func(e *storage.Encoder) error {
			return s.writeRecords(func(rec []byte) error {
				e.Bytes2(rec)
				return nil
			})
		})
	}); err != nil {
		return err
	}
	return s.j.CommitCheckpoint(t)
}

// SizeOnDisk returns the durable footprint in bytes: checkpoint, WAL
// and journal metadata.
func (s *Store) SizeOnDisk() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.SizeOnDisk()
}

// CheckpointBytes returns the size of the current checkpoint file (0
// if there is none).
func (s *Store) CheckpointBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.SnapshotSize()
}

// RecordDumpBytes returns the size of the store's rows written as a
// heap-file record dump, the records a checkpoint holds (experiment
// E1).
func (s *Store) RecordDumpBytes() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return storage.RecordDumpBytes(func(h *storage.HeapFile) error {
		return s.writeRecords(h.Append)
	})
}

// Apply ingests one browsing event, mirroring what Firefox 3 records.
// Events Places does not record (close, tab-open, search as a first-class
// object) are deliberately dropped — that information loss is the paper's
// thesis. Form submissions update input history only.
func (s *Store) Apply(ev *event.Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Type {
	case event.TypeVisit:
		// Firefox records no relationship for typed/bookmark navigations:
		// from_visit is only set when there is an HTTP referrer.
		var from VisitID
		if ev.Referrer != "" && ev.Transition != event.TransTyped && ev.Transition != event.TransBookmark {
			from = s.lastVisitOfURLLocked(ev.Referrer)
		}
		return s.logAndApply(opVisit, func(e *storage.Encoder) {
			e.String(ev.URL)
			e.String(ev.Title)
			e.Time(ev.Time)
			e.Uvarint(uint64(ev.Transition))
			e.Uvarint(uint64(from))
		})
	case event.TypeBookmarkAdd:
		return s.logAndApply(opBookmark, func(e *storage.Encoder) {
			e.String(ev.URL)
			e.String(ev.Title)
			e.Time(ev.Time)
		})
	case event.TypeDownload:
		return s.logAndApply(opDownload, func(e *storage.Encoder) {
			e.String(ev.URL)
			e.String(ev.SavePath)
			e.String(ev.ContentType)
			e.Time(ev.Time)
		})
	case event.TypeSearch:
		// Places only sees the result-page visit (recorded separately by
		// the browser); the terms go to input history at most.
		return s.logAndApply(opInput, func(e *storage.Encoder) {
			e.String(ev.URL)
			e.String(ev.Terms)
		})
	case event.TypeFormSubmit:
		return s.logAndApply(opInput, func(e *storage.Encoder) {
			e.String(ev.URL)
			e.String(ev.Terms)
		})
	case event.TypeClose, event.TypeTabOpen:
		return nil // not recorded by Places
	}
	return nil
}

// logAndApply encodes an op, journals it, and applies it to memory.
func (s *Store) logAndApply(op byte, encode func(*storage.Encoder)) error {
	e := storage.NewEncoder(64)
	e.Uvarint(uint64(op))
	encode(e)
	if err := s.j.Log(e.Bytes()); err != nil {
		return err
	}
	return s.applyOp(e.Bytes())
}

func (s *Store) lastVisitOfURLLocked(url string) VisitID {
	pid, ok := s.urlIndex[url]
	if !ok {
		return 0
	}
	vs := s.placeVisit[pid]
	if len(vs) == 0 {
		return 0
	}
	return vs[len(vs)-1]
}

// ---- Read API ----

// PlaceByURL returns the place row for url.
func (s *Store) PlaceByURL(url string) (Place, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pid, ok := s.urlIndex[url]
	if !ok {
		return Place{}, false
	}
	return *s.places[pid], true
}

// PlaceByID returns the place row with the given ID.
func (s *Store) PlaceByID(id PlaceID) (Place, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.places[id]
	if !ok {
		return Place{}, false
	}
	return *p, true
}

// VisitByID returns the visit row with the given ID.
func (s *Store) VisitByID(id VisitID) (Visit, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.visits[id]
	if !ok {
		return Visit{}, false
	}
	return *v, true
}

// VisitsOfPlace returns the visits of a place in chronological order.
func (s *Store) VisitsOfPlace(id PlaceID) []Visit {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.placeVisit[id]
	out := make([]Visit, 0, len(ids))
	for _, vid := range ids {
		out = append(out, *s.visits[vid])
	}
	return out
}

// Bookmarks returns all bookmark rows.
func (s *Store) Bookmarks() []Bookmark {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Bookmark(nil), s.bookmarks...)
}

// Annos returns all annotation rows.
func (s *Store) Annos() []Anno {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]Anno(nil), s.annos...)
}

// Inputs returns all input-history rows.
func (s *Store) Inputs() []InputHistory {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]InputHistory(nil), s.inputs...)
}

// EachPlace calls fn for every place; fn returning false stops iteration.
func (s *Store) EachPlace(fn func(Place) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]PlaceID, 0, len(s.places))
	for id := range s.places {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if !fn(*s.places[id]) {
			return
		}
	}
}

// Stats summarises table populations.
type Stats struct {
	Places    int
	Visits    int
	Bookmarks int
	Inputs    int
	Annos     int
}

// Stats returns table row counts.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Places:    len(s.places),
		Visits:    len(s.visits),
		Bookmarks: len(s.bookmarks),
		Inputs:    len(s.inputs),
		Annos:     len(s.annos),
	}
}

// revHost reverses the host portion of a URL the way Places does (so that
// suffix scans over a domain become prefix scans).
func revHost(url string) string {
	host := url
	if i := strings.Index(host, "://"); i >= 0 {
		host = host[i+3:]
	}
	if i := strings.IndexAny(host, "/?#"); i >= 0 {
		host = host[:i]
	}
	b := []byte(host)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b) + "."
}

// frecencyBonus is a simplified version of the Places frecency transition
// bonus table.
func frecencyBonus(tr event.Transition) int {
	switch tr {
	case event.TransTyped:
		return 2000
	case event.TransBookmark:
		return 1400
	case event.TransLink, event.TransSearchResult, event.TransNewTab:
		return 1000
	case event.TransEmbed, event.TransFramedLink:
		return 0
	case event.TransRedirectPermanent, event.TransRedirectTemporary:
		return 0
	case event.TransDownload:
		return 500
	default:
		return 1000
	}
}

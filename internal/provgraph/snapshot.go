package provgraph

import (
	"sort"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// ---- event codec (WAL payloads) ----

// encodeEventInto serialises a browsing event for the journal into e
// (which the caller resets and reuses across events — the apply hot
// path pays zero encoder allocations). The WAL is therefore a complete,
// replayable activity log — the provenance store's ground truth.
func encodeEventInto(e *storage.Encoder, ev *event.Event) {
	e.Uvarint(uint64(ev.Type))
	e.Time(ev.Time)
	e.Varint(int64(ev.Tab))
	e.String(ev.URL)
	e.String(ev.Title)
	e.String(ev.Referrer)
	e.Uvarint(uint64(ev.Transition))
	e.String(ev.Terms)
	e.String(ev.SavePath)
	e.String(ev.ContentType)
}

// decodeWALRecord decodes one journal payload: either a bare event
// (first uvarint is the event type, 0..6) or a dedup-keyed ingest
// record (walRecDedup discriminator, then the ID, then the event). A
// keyed record always carries an ID: one without would re-encode as a
// bare event, which reads as a different record when its event type is
// walRecDedup.
func decodeWALRecord(payload []byte) (id string, ev *event.Event, err error) {
	d := storage.NewDecoder(payload)
	first, err := d.Uvarint()
	if err != nil {
		return "", nil, err
	}
	if first != walRecDedup {
		ev, err = decodeEvent(payload)
		return "", ev, err
	}
	if id, err = d.String(); err != nil {
		return "", nil, err
	}
	if id == "" {
		return "", nil, ErrBadEventID
	}
	ev, err = decodeEvent(payload[len(payload)-d.Remaining():])
	return id, ev, err
}

func decodeEvent(payload []byte) (*event.Event, error) {
	d := storage.NewDecoder(payload)
	var ev event.Event
	ty, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	ev.Type = event.Type(ty)
	if ev.Time, err = d.Time(); err != nil {
		return nil, err
	}
	tab, err := d.Varint()
	if err != nil {
		return nil, err
	}
	ev.Tab = int(tab)
	if ev.URL, err = d.String(); err != nil {
		return nil, err
	}
	if ev.Title, err = d.String(); err != nil {
		return nil, err
	}
	if ev.Referrer, err = d.String(); err != nil {
		return nil, err
	}
	tr, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	ev.Transition = event.Transition(tr)
	if ev.Terms, err = d.String(); err != nil {
		return nil, err
	}
	if ev.SavePath, err = d.String(); err != nil {
		return nil, err
	}
	if ev.ContentType, err = d.String(); err != nil {
		return nil, err
	}
	return &ev, nil
}

// ---- E1 record dump ----

// Record kinds of the E1 record dump.
const (
	recNode     = 1
	recEdges    = 2 // one record per source node, all its out-edges
	recAssembly = 3
	recDedup    = 4 // ingest event-ID dedup window, insertion order
)

// RecordDumpBytes writes the store's current state as a record dump —
// one heap-file record per node and per source node's out-edges, then
// the assembly and dedup records, on 4 KiB pages — to a temporary file
// and returns the file's size. This is the layout a Places-style
// database stores rows in, which is what experiment E1 compares: both
// schemas on the identical record substrate, so the size difference is
// schema overhead, not a format benchmark. The dump is a measurement
// only; nothing reads it back, and it never touches the journal.
func (s *Store) RecordDumpBytes() (int64, error) {
	release, err := s.PinRead()
	if err != nil {
		return 0, err
	}
	defer release()
	s.mu.Lock()
	sn := s.snapshotLocked()
	asm := s.captureAssemblyLocked()
	s.mu.Unlock()

	return storage.RecordDumpBytes(func(h *storage.HeapFile) error {
		return writeRecordDump(h, sn.flatEpoch(), asm)
	})
}

// writeRecordDump writes ep and asm into h: all nodes in ID order, all
// edges in (from, insertion) order, then the assembly state and the
// dedup window.
func writeRecordDump(h *storage.HeapFile, ep *sealedEpoch, asm assemblyCapture) error {
	enc := storage.NewEncoder(256)
	put := func() error { return h.Append(enc.Bytes()) }
	for id := NodeID(1); id <= ep.maxID; id++ {
		n, ok := ep.nodeAt(id)
		if !ok {
			continue
		}
		enc.Reset()
		enc.Uvarint(recNode)
		enc.Uvarint(uint64(id))
		enc.Uvarint(uint64(n.Kind))
		// Visit instances inherit URL and title from their page node;
		// storing them again would bloat the dominant table (and is the
		// normalisation Places itself applies via place_id).
		if n.Kind == KindVisit {
			enc.String("")
			enc.String("")
		} else {
			enc.String(n.URL)
			enc.String(n.Title)
		}
		enc.String(n.Text)
		enc.Time(n.Open)
		enc.Time(n.Close)
		enc.Uvarint(uint64(n.Page))
		enc.Varint(int64(n.VisitSeq))
		enc.Uvarint(uint64(n.Via))
		if err := put(); err != nil {
			return err
		}
	}
	// Edges, grouped per source node to amortise record framing. The
	// timestamp is omitted when it equals the target node's open time
	// (the overwhelmingly common case: the action that created the edge
	// also created the target instance), mirroring how Places stores
	// from_visit without a second date column.
	_, outOff, _ := ep.csr.Parts()
	for id := NodeID(1); id <= ep.maxID; id++ {
		edges := ep.edges[outOff[id]:outOff[id+1]]
		if len(edges) == 0 {
			continue
		}
		enc.Reset()
		enc.Uvarint(recEdges)
		enc.Uvarint(uint64(id))
		enc.Uvarint(uint64(len(edges)))
		for _, e := range edges {
			enc.Uvarint(uint64(e.To))
			hasAt := uint64(0)
			if to, ok := ep.nodeAt(e.To); !ok || !e.At.Equal(to.Open) {
				hasAt = 1
			}
			enc.Uvarint(uint64(e.Kind)<<1 | hasAt)
			if hasAt == 1 {
				enc.Time(e.At)
			}
		}
		if err := put(); err != nil {
			return err
		}
	}
	// Assembly state: counters, per-tab cursors, pending joins.
	enc.Reset()
	enc.Uvarint(recAssembly)
	enc.Uvarint(uint64(asm.nextNode))
	enc.Uvarint(uint64(asm.mode))
	enc.Uvarint(uint64(len(asm.tabCur)))
	tabs := make([]int, 0, len(asm.tabCur))
	for t := range asm.tabCur {
		tabs = append(tabs, t)
	}
	sort.Ints(tabs)
	for _, t := range tabs {
		enc.Varint(int64(t))
		enc.Uvarint(uint64(asm.tabCur[t]))
	}
	writePending := func(m map[int]pending) {
		enc.Uvarint(uint64(len(m)))
		ks := make([]int, 0, len(m))
		for t := range m {
			ks = append(ks, t)
		}
		sort.Ints(ks)
		for _, t := range ks {
			enc.Varint(int64(t))
			enc.Uvarint(uint64(m[t].node))
			enc.String(m[t].url)
		}
	}
	writePending(asm.pendingSearch)
	writePending(asm.pendingForm)
	if err := put(); err != nil {
		return err
	}
	// Ingest dedup window, in insertion order.
	enc.Reset()
	enc.Uvarint(recDedup)
	enc.Uvarint(uint64(len(asm.dedupIDs)))
	for _, id := range asm.dedupIDs {
		enc.String(id)
	}
	return put()
}

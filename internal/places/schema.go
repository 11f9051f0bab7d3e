package places

import (
	"fmt"
	"sort"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// Journaled operation codes. The WAL carries logical operations (not
// physical rows) so that replay reproduces the same ID assignment
// deterministically.
const (
	opVisit    = 1
	opBookmark = 2
	opDownload = 3
	opInput    = 4
)

// secRecords is the checkpoint section holding every row, each a
// length-prefixed record of one of the kinds below.
const secRecords = 1

// Checkpoint record kinds.
const (
	snapPlace    = 1
	snapVisit    = 2
	snapBookmark = 3
	snapInput    = 4
	snapAnno     = 5
	snapCounters = 6
)

// applyOp decodes one journaled operation and applies it to in-memory
// state. It is used both on the live mutation path and during replay.
func (s *Store) applyOp(payload []byte) error {
	d := storage.NewDecoder(payload)
	op, err := d.Uvarint()
	if err != nil {
		return err
	}
	switch op {
	case opVisit:
		url, err := d.String()
		if err != nil {
			return err
		}
		title, err := d.String()
		if err != nil {
			return err
		}
		when, err := d.Time()
		if err != nil {
			return err
		}
		tr, err := d.Uvarint()
		if err != nil {
			return err
		}
		from, err := d.Uvarint()
		if err != nil {
			return err
		}
		s.applyVisit(url, title, when, event.Transition(tr), VisitID(from))
		return nil
	case opBookmark:
		url, err := d.String()
		if err != nil {
			return err
		}
		title, err := d.String()
		if err != nil {
			return err
		}
		when, err := d.Time()
		if err != nil {
			return err
		}
		pid := s.ensurePlace(url, title)
		s.bookmarks = append(s.bookmarks, Bookmark{
			ID: s.nextRow, Place: pid, Title: title, DateAdded: when,
		})
		s.nextRow++
		return nil
	case opDownload:
		url, err := d.String()
		if err != nil {
			return err
		}
		dest, err := d.String()
		if err != nil {
			return err
		}
		mime, err := d.String()
		if err != nil {
			return err
		}
		when, err := d.Time()
		if err != nil {
			return err
		}
		pid := s.ensurePlace(url, "")
		s.annos = append(s.annos, Anno{
			ID: s.nextRow, Place: pid, Name: AnnoDownloadDest, Content: dest, DateAdded: when,
		})
		s.nextRow++
		if mime != "" {
			s.annos = append(s.annos, Anno{
				ID: s.nextRow, Place: pid, Name: AnnoDownloadMime, Content: mime, DateAdded: when,
			})
			s.nextRow++
		}
		return nil
	case opInput:
		url, err := d.String()
		if err != nil {
			return err
		}
		input, err := d.String()
		if err != nil {
			return err
		}
		pid := s.ensurePlace(url, "")
		for i := range s.inputs {
			if s.inputs[i].Place == pid && s.inputs[i].Input == input {
				s.inputs[i].UseCount++
				return nil
			}
		}
		s.inputs = append(s.inputs, InputHistory{Place: pid, Input: input, UseCount: 1})
		return nil
	default:
		return fmt.Errorf("places: unknown op %d", op)
	}
}

// ensurePlace returns the PlaceID for url, creating the row if needed and
// upgrading an empty title.
func (s *Store) ensurePlace(url, title string) PlaceID {
	if pid, ok := s.urlIndex[url]; ok {
		p := s.places[pid]
		if p.Title == "" && title != "" {
			p.Title = title
		}
		return pid
	}
	id := s.nextPlace
	s.nextPlace++
	s.places[id] = &Place{ID: id, URL: url, Title: title, RevHost: revHost(url)}
	s.urlIndex[url] = id
	return id
}

func (s *Store) applyVisit(url, title string, when time.Time, tr event.Transition, from VisitID) {
	pid := s.ensurePlace(url, title)
	p := s.places[pid]
	vid := s.nextVisit
	s.nextVisit++
	v := &Visit{ID: vid, FromVisit: from, Place: pid, Date: when, Type: tr}
	s.visits[vid] = v
	s.placeVisit[pid] = append(s.placeVisit[pid], vid)
	p.VisitCount++
	if tr == event.TransTyped {
		p.Typed++
	}
	if when.After(p.LastVisit) {
		p.LastVisit = when
	}
	p.Frecency += frecencyBonus(tr)
}

// writeRecords encodes every row as one record and hands each to put,
// in a fixed order: places and visits by ID, then bookmarks, input
// history and annotations in row order, then the ID counters. put must
// copy the record; its buffer is reused.
func (s *Store) writeRecords(put func(rec []byte) error) error {
	enc := storage.NewEncoder(256)
	// Places, in ID order for determinism.
	ids := make([]PlaceID, 0, len(s.places))
	for id := range s.places {
		ids = append(ids, id)
	}
	sortPlaceIDs(ids)
	for _, id := range ids {
		p := s.places[id]
		enc.Reset()
		enc.Uvarint(snapPlace)
		enc.Uvarint(uint64(p.ID))
		enc.String(p.URL)
		enc.String(p.Title)
		enc.String(p.RevHost)
		enc.Varint(int64(p.VisitCount))
		enc.Varint(int64(p.Typed))
		enc.Varint(int64(p.Frecency))
		enc.Time(p.LastVisit)
		if err := put(enc.Bytes()); err != nil {
			return err
		}
	}
	vids := make([]VisitID, 0, len(s.visits))
	for id := range s.visits {
		vids = append(vids, id)
	}
	sortVisitIDs(vids)
	for _, id := range vids {
		v := s.visits[id]
		enc.Reset()
		enc.Uvarint(snapVisit)
		enc.Uvarint(uint64(v.ID))
		enc.Uvarint(uint64(v.FromVisit))
		enc.Uvarint(uint64(v.Place))
		enc.Time(v.Date)
		enc.Uvarint(uint64(v.Type))
		if err := put(enc.Bytes()); err != nil {
			return err
		}
	}
	for _, b := range s.bookmarks {
		enc.Reset()
		enc.Uvarint(snapBookmark)
		enc.Uvarint(b.ID)
		enc.Uvarint(uint64(b.Place))
		enc.String(b.Title)
		enc.Time(b.DateAdded)
		if err := put(enc.Bytes()); err != nil {
			return err
		}
	}
	for _, in := range s.inputs {
		enc.Reset()
		enc.Uvarint(snapInput)
		enc.Uvarint(uint64(in.Place))
		enc.String(in.Input)
		enc.Float64(in.UseCount)
		if err := put(enc.Bytes()); err != nil {
			return err
		}
	}
	for _, a := range s.annos {
		enc.Reset()
		enc.Uvarint(snapAnno)
		enc.Uvarint(a.ID)
		enc.Uvarint(uint64(a.Place))
		enc.String(a.Name)
		enc.String(a.Content)
		enc.Time(a.DateAdded)
		if err := put(enc.Bytes()); err != nil {
			return err
		}
	}
	enc.Reset()
	enc.Uvarint(snapCounters)
	enc.Uvarint(uint64(s.nextPlace))
	enc.Uvarint(uint64(s.nextVisit))
	enc.Uvarint(s.nextRow)
	return put(enc.Bytes())
}

// loadSections restores all tables from a checkpoint's records section.
func (s *Store) loadSections(f *storage.SectionFile) error {
	defer f.Close()
	p, err := f.Section(secRecords)
	if err != nil {
		return err
	}
	if p == nil {
		return fmt.Errorf("places: checkpoint %s has no records section", f.Path())
	}
	for d := storage.NewDecoder(p); d.Remaining() > 0; {
		rec, err := d.Bytes2()
		if err != nil {
			return err
		}
		if err := s.loadRecord(rec); err != nil {
			return err
		}
	}
	return nil
}

// loadRecord restores one checkpoint record.
func (s *Store) loadRecord(rec []byte) error {
	d := storage.NewDecoder(rec)
	kind, err := d.Uvarint()
	if err != nil {
		return err
	}
	switch kind {
	case snapPlace:
		var p Place
		var id uint64
		if id, err = d.Uvarint(); err != nil {
			return err
		}
		p.ID = PlaceID(id)
		if p.URL, err = d.String(); err != nil {
			return err
		}
		if p.Title, err = d.String(); err != nil {
			return err
		}
		if p.RevHost, err = d.String(); err != nil {
			return err
		}
		vc, err := d.Varint()
		if err != nil {
			return err
		}
		p.VisitCount = int(vc)
		ty, err := d.Varint()
		if err != nil {
			return err
		}
		p.Typed = int(ty)
		fr, err := d.Varint()
		if err != nil {
			return err
		}
		p.Frecency = int(fr)
		if p.LastVisit, err = d.Time(); err != nil {
			return err
		}
		s.places[p.ID] = &p
		s.urlIndex[p.URL] = p.ID
	case snapVisit:
		var v Visit
		id, err := d.Uvarint()
		if err != nil {
			return err
		}
		v.ID = VisitID(id)
		from, err := d.Uvarint()
		if err != nil {
			return err
		}
		v.FromVisit = VisitID(from)
		pl, err := d.Uvarint()
		if err != nil {
			return err
		}
		v.Place = PlaceID(pl)
		if v.Date, err = d.Time(); err != nil {
			return err
		}
		tr, err := d.Uvarint()
		if err != nil {
			return err
		}
		v.Type = event.Transition(tr)
		s.visits[v.ID] = &v
		s.placeVisit[v.Place] = append(s.placeVisit[v.Place], v.ID)
	case snapBookmark:
		var b Bookmark
		if b.ID, err = d.Uvarint(); err != nil {
			return err
		}
		pl, err := d.Uvarint()
		if err != nil {
			return err
		}
		b.Place = PlaceID(pl)
		if b.Title, err = d.String(); err != nil {
			return err
		}
		if b.DateAdded, err = d.Time(); err != nil {
			return err
		}
		s.bookmarks = append(s.bookmarks, b)
	case snapInput:
		var in InputHistory
		pl, err := d.Uvarint()
		if err != nil {
			return err
		}
		in.Place = PlaceID(pl)
		if in.Input, err = d.String(); err != nil {
			return err
		}
		if in.UseCount, err = d.Float64(); err != nil {
			return err
		}
		s.inputs = append(s.inputs, in)
	case snapAnno:
		var a Anno
		if a.ID, err = d.Uvarint(); err != nil {
			return err
		}
		pl, err := d.Uvarint()
		if err != nil {
			return err
		}
		a.Place = PlaceID(pl)
		if a.Name, err = d.String(); err != nil {
			return err
		}
		if a.Content, err = d.String(); err != nil {
			return err
		}
		if a.DateAdded, err = d.Time(); err != nil {
			return err
		}
		s.annos = append(s.annos, a)
	case snapCounters:
		np, err := d.Uvarint()
		if err != nil {
			return err
		}
		nv, err := d.Uvarint()
		if err != nil {
			return err
		}
		nr, err := d.Uvarint()
		if err != nil {
			return err
		}
		s.nextPlace = PlaceID(np)
		s.nextVisit = VisitID(nv)
		s.nextRow = nr
	default:
		return fmt.Errorf("places: unknown checkpoint record kind %d", kind)
	}
	return nil
}

func sortPlaceIDs(ids []PlaceID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortVisitIDs(ids []VisitID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

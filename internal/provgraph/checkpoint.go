package provgraph

import (
	"fmt"
	"sort"
	"time"

	"browserprov/internal/graph"
	"browserprov/internal/storage"
)

// This file implements the store's checkpoint: a flattened sealed epoch
// persisted as sections of a storage.SectionWriter file (the v3 schema
// in the v4 container — the only checkpoint the store reads or writes).
// Every fixed-width column is dumped as a raw little-endian array in its
// own page-aligned section, so an open memory-maps the file and points
// the sealed epoch straight at the section payloads — node fields are
// reconstructed on demand from the mapped columns, strings are
// substrings of the mapped blobs, and the CSR arrays are the file bytes
// themselves. Nothing is copied until something actually needs a
// mutable form:
//
//   - queries run entirely over the column-backed epoch (plus the
//     rematerialised edge attribute slices, which are tiny — arcs, not
//     nodes);
//   - the first write THAWS the store (Store.thawLocked): the Node slab,
//     the mutable maps and the B-trees materialise then. A read-mostly
//     daemon that restarts, answers queries and ingests nothing never
//     pays for any of it.
//
// Only the WAL tail remains to replay at open, as the unsealed overlay.
// Section CRCs are verified lazily, on first access. The writer consumes
// nothing but an immutable Snapshot capture plus an O(tabs) assembly
// copy, both taken under a short lock — which is what lets
// Store.Checkpoint stream the dump in the background while writers keep
// appending (see Checkpoint in provgraph.go).

// Section tags of the checkpoint schema. The storage.SectionWriter
// header carries the container format version; these tags version the
// provenance schema within it. Tags 1–5 belonged to an earlier
// varint-columnar schema and are not reused.
const (
	secURLIndex  = 6  // page IDs sorted by URL — urlIndex bulk-load stream
	secTermIndex = 7  // latest term-instance IDs sorted by term — termIndex stream
	secAssembly  = 8  // counters, per-tab cursors, pending joins
	secText      = 9  // text-index postings + watermark (optional)
	secDedup     = 10 // ingest event-ID dedup window, insertion order (optional)

	secV3Meta      = 16 // varints: maxID, nArcs, numNodes
	secV3Flags     = 17 // u8[maxID+1]: kind + nf* presence bits
	secV3Open      = 18 // i64[maxID+1]: open unix-micros
	secV3Close     = 19 // i64[maxID+1]: close unix-micros
	secV3Page      = 20 // u64[maxID+1]: visit -> page identity
	secV3Via       = 21 // u8[maxID+1]: creating transition
	secV3Seq       = 22 // u32[maxID+1]: visit sequence numbers
	secV3URLOff    = 23 // u32[2*(maxID+1)]: (start, end) spans into url blob
	secV3TitleOff  = 24
	secV3TextOff   = 25
	secV3URLBlob   = 26 // raw string bytes
	secV3TitleBlob = 27
	secV3TextBlob  = 28
	secV3OutOff    = 29 // u32[maxID+2]: CSR out offsets
	secV3OutAdj    = 30 // u64[nArcs]: CSR out targets, arc order
	secV3ArcKind   = 31 // u8[nArcs]: edge kinds, arc order
	secV3ArcAt     = 32 // i64[nArcs]: edge times, arc order
	secV3InOff     = 33 // u32[maxID+2]: in-adjacency offsets
	secV3InFrom    = 34 // u64[nArcs]: in-adjacency sources, insertion order
	secV3InKind    = 35 // u8[nArcs]
	secV3InAt      = 36 // i64[nArcs]
	secV3OpenTL    = 37 // i64[2*nOpen]: (at, id) visit timeline, sorted
	secV3VisitsOff = 38 // u32[maxID+2]: per-page visit list offsets
	secV3VisitIDs  = 39 // u64[nVisits]
	secV3Downloads = 40 // u64[nDownloads], creation order
)

// Node column flag bits. Low three bits hold the NodeKind (0 = gap left
// by retention); the rest mark optional per-node columns.
const (
	nfKindMask = 0x07
	nfClose    = 0x08
	nfURL      = 0x10
	nfTitle    = 0x20
	nfText     = 0x40
	nfSeq      = 0x80
)

// assemblyCapture is the O(tabs) copy of the store's event-assembly
// state a checkpoint takes under the lock.
type assemblyCapture struct {
	nextNode      NodeID
	mode          VersioningMode
	tabCur        map[int]NodeID
	pendingSearch map[int]pending
	pendingForm   map[int]pending
	dedupIDs      []string // ingest dedup window, insertion order
}

// captureAssemblyLocked copies the assembly state. Caller holds mu.
func (s *Store) captureAssemblyLocked() assemblyCapture {
	asm := assemblyCapture{
		nextNode:      s.nextNode,
		mode:          s.mode,
		tabCur:        make(map[int]NodeID, len(s.tabCur)),
		pendingSearch: make(map[int]pending, len(s.pendingSearch)),
		pendingForm:   make(map[int]pending, len(s.pendingForm)),
	}
	for t, v := range s.tabCur {
		asm.tabCur[t] = v
	}
	for t, p := range s.pendingSearch {
		asm.pendingSearch[t] = p
	}
	for t, p := range s.pendingForm {
		asm.pendingForm[t] = p
	}
	asm.dedupIDs = s.dedup.snapshot()
	return asm
}

// micro returns t as Unix microseconds, with the zero time mapped to 0
// (the same convention as the storage codec).
func micro(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMicro()
}

func microTime(us int64) time.Time {
	if us == 0 {
		return time.Time{}
	}
	return time.UnixMicro(us).UTC()
}

// writeSnapshotV3 streams a flattened epoch as raw column sections. It
// reads the epoch only through its accessors, so it serves both
// slab-backed epochs (flattened live state) and column-backed ones (a
// tail-empty re-checkpoint of a store that was itself v3-loaded).
func writeSnapshotV3(w *storage.SectionWriter, ep *sealedEpoch, asm assemblyCapture, text []byte, textWM NodeID) error {
	maxID := ep.maxID
	n1 := int(maxID) + 1

	flags := make([]byte, n1)
	openUS := make([]int64, n1)
	closeUS := make([]int64, n1)
	page := make([]NodeID, n1)
	via := make([]byte, n1)
	seq := make([]uint32, n1)
	urlOff := make([]uint32, 2*n1)
	titleOff := make([]uint32, 2*n1)
	textOff := make([]uint32, 2*n1)
	var urlBlob, titleBlob, textBlob []byte
	numNodes := 0

	// span writes one string field: a visit field equal to its page's is
	// stored as the page's span (page IDs always precede their visits),
	// anything else appends its own bytes. The nf* presence bit is set
	// exactly when the node owns its bytes, so a genuinely empty visit
	// title under a titled page stays a zero-length own span, not a
	// resurrected page title.
	span := func(off []uint32, blob []byte, id NodeID, v string, pageID NodeID, pv string, shared bool) []byte {
		if shared && v == pv {
			off[2*id], off[2*id+1] = off[2*pageID], off[2*pageID+1]
			return blob
		}
		off[2*id] = uint32(len(blob))
		blob = append(blob, v...)
		off[2*id+1] = uint32(len(blob))
		return blob
	}

	for id := NodeID(1); id <= maxID; id++ {
		n, ok := ep.nodeAt(id)
		if !ok {
			continue
		}
		numNodes++
		f := byte(n.Kind) & nfKindMask
		if !n.Close.IsZero() {
			f |= nfClose
			closeUS[id] = micro(n.Close)
		}
		openUS[id] = micro(n.Open)
		page[id] = n.Page
		via[id] = byte(n.Via)
		seq[id] = uint32(n.VisitSeq)
		var pURL, pTitle string
		shared := false
		if n.Kind == KindVisit && n.Page != 0 && n.Page < id {
			if p, ok := ep.nodeAt(n.Page); ok {
				pURL, pTitle, shared = p.URL, p.Title, true
			}
		}
		if !(shared && n.URL == pURL) {
			f |= nfURL
		}
		if !(shared && n.Title == pTitle) {
			f |= nfTitle
		}
		if n.Text != "" {
			f |= nfText
		}
		if n.VisitSeq != 0 {
			f |= nfSeq
		}
		flags[id] = f
		urlBlob = span(urlOff, urlBlob, id, n.URL, n.Page, pURL, shared)
		titleBlob = span(titleOff, titleBlob, id, n.Title, n.Page, pTitle, shared)
		textBlob = span(textOff, textBlob, id, n.Text, 0, "", false)
	}

	_, outOffU32, outAdj := ep.csr.Parts()
	nArcs := len(outAdj)
	arcKind := make([]byte, nArcs)
	arcAt := make([]int64, nArcs)
	for i := range ep.edges {
		arcKind[i] = byte(ep.edges[i].Kind)
		arcAt[i] = micro(ep.edges[i].At)
	}
	inKind := make([]byte, nArcs)
	inAt := make([]int64, nArcs)
	for i := range ep.inEdges {
		inKind[i] = byte(ep.inEdges[i].Kind)
		inAt[i] = micro(ep.inEdges[i].At)
	}
	openTL := make([]int64, 2*len(ep.open))
	for i, ent := range ep.open {
		openTL[2*i] = ent.at
		openTL[2*i+1] = int64(ent.id)
	}

	if err := w.WriteSection(secV3Meta, func(e *storage.Encoder) error {
		e.Uvarint(uint64(maxID))
		e.Uvarint(uint64(nArcs))
		e.Uvarint(uint64(numNodes))
		return nil
	}); err != nil {
		return err
	}
	raw := func(tag uint32, b []byte) error { return w.WriteSectionBytes(tag, b) }
	steps := []func() error{
		func() error { return raw(secV3Flags, flags) },
		func() error { return raw(secV3Open, i64Bytes(openUS)) },
		func() error { return raw(secV3Close, i64Bytes(closeUS)) },
		func() error { return raw(secV3Page, nodeIDBytes(page)) },
		func() error { return raw(secV3Via, via) },
		func() error { return raw(secV3Seq, u32Bytes(seq)) },
		func() error { return raw(secV3URLOff, u32Bytes(urlOff)) },
		func() error { return raw(secV3TitleOff, u32Bytes(titleOff)) },
		func() error { return raw(secV3TextOff, u32Bytes(textOff)) },
		func() error { return raw(secV3URLBlob, urlBlob) },
		func() error { return raw(secV3TitleBlob, titleBlob) },
		func() error { return raw(secV3TextBlob, textBlob) },
		func() error { return raw(secV3OutOff, u32Bytes(outOffU32)) },
		func() error { return raw(secV3OutAdj, nodeIDBytes(outAdj)) },
		func() error { return raw(secV3ArcKind, arcKind) },
		func() error { return raw(secV3ArcAt, i64Bytes(arcAt)) },
		func() error { return raw(secV3InOff, u32Bytes(ep.inOff)) },
		func() error { return raw(secV3InFrom, nodeIDBytes(ep.inIDs)) },
		func() error { return raw(secV3InKind, inKind) },
		func() error { return raw(secV3InAt, i64Bytes(inAt)) },
		func() error { return raw(secV3OpenTL, i64Bytes(openTL)) },
		func() error { return raw(secV3VisitsOff, u32Bytes(ep.visitsOff)) },
		func() error { return raw(secV3VisitIDs, nodeIDBytes(ep.visitIDs)) },
		func() error { return raw(secV3Downloads, nodeIDBytes(ep.downloads)) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	ep.ensureMaps()
	if err := writeSortedIDs(w, secURLIndex, ep.urlToPage); err != nil {
		return err
	}
	if err := writeSortedIDs(w, secTermIndex, ep.termNode); err != nil {
		return err
	}
	if err := writeAssemblySection(w, asm); err != nil {
		return err
	}
	if err := writeDedupSection(w, asm.dedupIDs); err != nil {
		return err
	}
	return writeTextSection(w, text, textWM)
}

// writeSortedIDs persists a secondary-index stream: node IDs sorted by
// their key. The keys themselves live in the node columns, so the
// sections cost a few bytes per entry and the loader bulk-builds each
// B-tree from one linear pass with zero re-sorting.
func writeSortedIDs(w *storage.SectionWriter, tag uint32, byKey map[string]NodeID) error {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return w.WriteSection(tag, func(e *storage.Encoder) error {
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.Uvarint(uint64(byKey[k]))
		}
		return nil
	})
}

// writeAssemblySection persists the per-tab event-assembly state.
func writeAssemblySection(w *storage.SectionWriter, asm assemblyCapture) error {
	return w.WriteSection(secAssembly, func(e *storage.Encoder) error {
		e.Uvarint(uint64(asm.nextNode))
		e.Uvarint(uint64(asm.mode))
		tabs := make([]int, 0, len(asm.tabCur))
		for t := range asm.tabCur {
			tabs = append(tabs, t)
		}
		sort.Ints(tabs)
		e.Uvarint(uint64(len(tabs)))
		for _, t := range tabs {
			e.Varint(int64(t))
			e.Uvarint(uint64(asm.tabCur[t]))
		}
		writePending := func(m map[int]pending) {
			ks := make([]int, 0, len(m))
			for t := range m {
				ks = append(ks, t)
			}
			sort.Ints(ks)
			e.Uvarint(uint64(len(ks)))
			for _, t := range ks {
				e.Varint(int64(t))
				e.Uvarint(uint64(m[t].node))
				e.String(m[t].url)
			}
		}
		writePending(asm.pendingSearch)
		writePending(asm.pendingForm)
		return nil
	})
}

// writeDedupSection persists the ingest dedup window in insertion order
// (skipped when empty, so stores that never saw keyed ingest produce
// checkpoints byte-identical to pre-dedup builds). The section is
// optional at load.
func writeDedupSection(w *storage.SectionWriter, ids []string) error {
	if len(ids) == 0 {
		return nil
	}
	return w.WriteSection(secDedup, func(e *storage.Encoder) error {
		e.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			e.String(id)
		}
		return nil
	})
}

// readDedupSection restores the ingest dedup window. Strings are copied
// out of the section payload by construction (byte-to-string
// conversion), so aliasing the checkpoint buffer here is safe.
func (s *Store) readDedupSection(p []byte) error {
	d := storage.NewDecoder(p)
	count, err := d.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < count; i++ {
		id, err := d.String()
		if err != nil {
			return err
		}
		s.dedup.add(id)
	}
	return nil
}

// writeTextSection persists the text-index postings (skipped when nil).
func writeTextSection(w *storage.SectionWriter, text []byte, textWM NodeID) error {
	if text == nil {
		return nil
	}
	return w.WriteSection(secText, func(e *storage.Encoder) error {
		e.Uvarint(uint64(textWM))
		e.Raw(text)
		return nil
	})
}

// loadSections is the journal's LoadSections callback: it installs a
// column-backed sealed epoch over the section file's payloads. Only the
// per-arc attribute slices and the visit timeline are materialised (both
// are small — arcs and visits, not a per-node slab); everything per-node
// stays in the mapped columns. Mutable store state is NOT built here:
// s.thaw holds the deferred installation and runs on the first write
// (see thawLocked). The loaded state aliases section payloads (column
// arrays, strings, recovered text postings), so the store takes
// ownership of the file's reference here and holds it until the last
// pinned read after Close — see Store.unpin.
func (s *Store) loadSections(f *storage.SectionFile) error {
	s.sect = f
	sec := func(tag uint32, name string) ([]byte, error) {
		p, err := f.Section(tag)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("provgraph: checkpoint missing %s section", name)
		}
		return p, nil
	}
	secLen := func(tag uint32, name string, want int) ([]byte, error) {
		p, err := sec(tag, name)
		if err != nil {
			return nil, err
		}
		if len(p) != want {
			return nil, fmt.Errorf("provgraph: checkpoint %s section is %d bytes, want %d", name, len(p), want)
		}
		return p, nil
	}

	metaP, err := sec(secV3Meta, "meta")
	if err != nil {
		return err
	}
	md := storage.NewDecoder(metaP)
	maxU, err := md.Uvarint()
	if err != nil {
		return err
	}
	maxID := NodeID(maxU)
	nArcsU, err := md.Uvarint()
	if err != nil {
		return err
	}
	nArcs := int(nArcsU)
	numU, err := md.Uvarint()
	if err != nil {
		return err
	}
	numNodes := int(numU)
	n1 := int(maxID) + 1

	cols := &nodeCols{}
	if p, err := secLen(secV3Flags, "flags", n1); err != nil {
		return err
	} else {
		cols.flags = p
	}
	if p, err := secLen(secV3Open, "open", 8*n1); err != nil {
		return err
	} else {
		cols.openUS = aliasI64(p)
	}
	if p, err := secLen(secV3Close, "close", 8*n1); err != nil {
		return err
	} else {
		cols.closeUS = aliasI64(p)
	}
	if p, err := secLen(secV3Page, "page", 8*n1); err != nil {
		return err
	} else {
		cols.page = aliasNodeIDs(p)
	}
	if p, err := secLen(secV3Via, "via", n1); err != nil {
		return err
	} else {
		cols.via = p
	}
	if p, err := secLen(secV3Seq, "seq", 4*n1); err != nil {
		return err
	} else {
		cols.seq = aliasU32(p)
	}
	if p, err := secLen(secV3URLOff, "url offsets", 8*n1); err != nil {
		return err
	} else {
		cols.urlOff = aliasU32(p)
	}
	if p, err := secLen(secV3TitleOff, "title offsets", 8*n1); err != nil {
		return err
	} else {
		cols.titleOff = aliasU32(p)
	}
	if p, err := secLen(secV3TextOff, "text offsets", 8*n1); err != nil {
		return err
	} else {
		cols.textOff = aliasU32(p)
	}
	urlBlobP, err := sec(secV3URLBlob, "url blob")
	if err != nil {
		return err
	}
	titleBlobP, err := sec(secV3TitleBlob, "title blob")
	if err != nil {
		return err
	}
	textBlobP, err := sec(secV3TextBlob, "text blob")
	if err != nil {
		return err
	}
	cols.urlBlob = aliasString(urlBlobP)
	cols.titleBlob = aliasString(titleBlobP)
	cols.textBlob = aliasString(textBlobP)
	if err := checkSpans(cols.urlOff, len(cols.urlBlob), "url"); err != nil {
		return err
	}
	if err := checkSpans(cols.titleOff, len(cols.titleBlob), "title"); err != nil {
		return err
	}
	if err := checkSpans(cols.textOff, len(cols.textBlob), "text"); err != nil {
		return err
	}

	ep := &sealedEpoch{maxID: maxID, cols: cols}

	// ---- out-direction CSR + edge attributes ----
	outOffP, err := secLen(secV3OutOff, "out offsets", 4*(n1+1))
	if err != nil {
		return err
	}
	outAdjP, err := secLen(secV3OutAdj, "out targets", 8*nArcs)
	if err != nil {
		return err
	}
	outOff := aliasU32(outOffP)
	if outOff == nil {
		outOff = make([]uint32, n1+1) // maxID == 0: empty graph
	}
	outAdj := aliasNodeIDs(outAdjP)
	if int(outOff[maxID+1]) != nArcs {
		return fmt.Errorf("provgraph: checkpoint degree sum %d != arc count %d", outOff[maxID+1], nArcs)
	}
	for _, to := range outAdj {
		if to == 0 || to > maxID {
			return fmt.Errorf("provgraph: checkpoint arc target %d out of range", to)
		}
	}
	ep.csr = graph.CSRFromParts(maxID, outOff, outAdj)

	arcKindP, err := secLen(secV3ArcKind, "arc kinds", nArcs)
	if err != nil {
		return err
	}
	arcAtP, err := secLen(secV3ArcAt, "arc times", 8*nArcs)
	if err != nil {
		return err
	}
	arcAt := aliasI64(arcAtP)
	ep.edges = make([]Edge, nArcs)
	arc := 0
	for from := NodeID(1); from <= maxID; from++ {
		for o := outOff[from]; o < outOff[from+1]; o++ {
			ep.edges[arc] = Edge{From: from, To: outAdj[o],
				Kind: EdgeKind(arcKindP[arc]), At: microTime(arcAt[arc])}
			arc++
		}
	}

	// ---- in-direction, per-node insertion order ----
	inOffP, err := secLen(secV3InOff, "in offsets", 4*(n1+1))
	if err != nil {
		return err
	}
	inFromP, err := secLen(secV3InFrom, "in sources", 8*nArcs)
	if err != nil {
		return err
	}
	inKindP, err := secLen(secV3InKind, "in kinds", nArcs)
	if err != nil {
		return err
	}
	inAtP, err := secLen(secV3InAt, "in times", 8*nArcs)
	if err != nil {
		return err
	}
	ep.inOff = aliasU32(inOffP)
	if ep.inOff == nil {
		ep.inOff = make([]uint32, n1+1)
	}
	ep.inIDs = aliasNodeIDs(inFromP)
	if int(ep.inOff[maxID+1]) != nArcs {
		return fmt.Errorf("provgraph: checkpoint in-degree sum %d != arc count %d", ep.inOff[maxID+1], nArcs)
	}
	inAt := aliasI64(inAtP)
	ep.inEdges = make([]Edge, nArcs)
	for to := NodeID(1); to <= maxID; to++ {
		for slot := ep.inOff[to]; slot < ep.inOff[to+1]; slot++ {
			ep.inEdges[slot] = Edge{From: ep.inIDs[slot], To: to,
				Kind: EdgeKind(inKindP[slot]), At: microTime(inAt[slot])}
		}
	}

	// ---- visit timeline ----
	openTLP, err := sec(secV3OpenTL, "open timeline")
	if err != nil {
		return err
	}
	if len(openTLP)%16 != 0 {
		return fmt.Errorf("provgraph: checkpoint open timeline is %d bytes, not 16-aligned", len(openTLP))
	}
	openTL := aliasI64(openTLP)
	ep.open = make([]openEnt, len(openTL)/2)
	for i := range ep.open {
		ep.open[i] = openEnt{at: openTL[2*i], id: NodeID(openTL[2*i+1])}
	}

	// ---- per-page visit lists + downloads ----
	visitsOffP, err := secLen(secV3VisitsOff, "visit offsets", 4*(n1+1))
	if err != nil {
		return err
	}
	ep.visitsOff = aliasU32(visitsOffP)
	if ep.visitsOff == nil {
		ep.visitsOff = make([]uint32, n1+1)
	}
	visitIDsP, err := secLen(secV3VisitIDs, "visit ids", 8*int(ep.visitsOff[maxID+1]))
	if err != nil {
		return err
	}
	ep.visitIDs = aliasNodeIDs(visitIDsP)
	dlsP, err := sec(secV3Downloads, "downloads")
	if err != nil {
		return err
	}
	ep.downloads = aliasNodeIDs(dlsP)

	// ---- secondary index streams: stashed for the thaw ----
	urlIdxP, err := sec(secURLIndex, "url index")
	if err != nil {
		return err
	}
	termIdxP, err := sec(secTermIndex, "term index")
	if err != nil {
		return err
	}

	// ---- assembly state ----
	asmP, err := sec(secAssembly, "assembly")
	if err != nil {
		return err
	}
	if err := s.readAssemblySection(asmP); err != nil {
		return err
	}
	if p, err := f.Section(secDedup); err != nil {
		return err
	} else if p != nil {
		if err := s.readDedupSection(p); err != nil {
			return err
		}
	}

	// ---- text-index postings (optional) ----
	//
	// Aliased, not copied: a v3 load pins the whole file view through the
	// epoch columns anyway, so stashing a subslice costs nothing extra.
	if p, err := f.Section(secText); err != nil {
		return err
	} else if p != nil {
		d := storage.NewDecoder(p)
		wm, err := d.Uvarint()
		if err != nil {
			return err
		}
		payload, err := d.Raw(d.Remaining())
		if err != nil {
			return err
		}
		s.recoveredText = payload
		s.recoveredTextWM = NodeID(wm)
	}

	s.numNodes = numNodes
	s.numEdges = nArcs
	if f.Mapped() {
		s.mappedBytes = f.Size()
	} else {
		s.heapLoadBytes = f.Size()
	}
	s.heapLoadBytes += int64(len(ep.edges)+len(ep.inEdges))*edgeStructBytes +
		int64(len(ep.open))*16
	if maxID == 0 {
		return nil
	}
	s.sealed = ep

	// Deferred mutable install: everything a writer (or a store-level
	// locked read) needs, built on first use. Queries never trigger it —
	// they run against the epoch snapshot above.
	s.thaw = func() { s.thawV3(ep, cols, outOff, outAdj, urlIdxP, termIdxP, numNodes) }
	return nil
}

// thawV3 materialises the store's mutable state from a column-backed
// epoch: the Node slab, the pointer map, capacity-clamped adjacency
// rows, the per-page visit lists and the secondary B-trees — the state
// live ingest would have built. Runs once, under the write lock,
// triggered by the first mutation (or locked store-level read).
func (s *Store) thawV3(ep *sealedEpoch, cols *nodeCols, outOff []uint32, outAdj []NodeID,
	urlIdxP, termIdxP []byte, numNodes int) {
	maxID := ep.maxID
	slab := make([]Node, maxID+1)
	s.nodes = make(map[NodeID]*Node, numNodes)
	s.outE = adjSized[Edge](maxID)
	s.inE = adjSized[Edge](maxID)
	s.outIDs = adjSized[NodeID](maxID)
	s.inIDs = adjSized[NodeID](maxID)
	s.pageVisits = make(map[NodeID][]NodeID, numNodes/4+1)
	s.lastVisitByURL = make(map[string]NodeID, numNodes/4+1)
	for id := NodeID(1); id <= maxID; id++ {
		n, ok := cols.node(id)
		if !ok {
			continue
		}
		slab[id] = n
		s.nodes[id] = &slab[id]
		switch n.Kind {
		case KindBookmark:
			s.bookmarkByURL[n.URL] = id
		case KindDownload:
			s.saveIndex[n.Text] = id
		}
		if lo, hi := outOff[id], outOff[id+1]; hi > lo {
			s.outE.rows[id] = ep.edges[lo:hi:hi]
			s.outIDs.rows[id] = outAdj[lo:hi:hi]
		}
		if lo, hi := ep.inOff[id], ep.inOff[id+1]; hi > lo {
			s.inE.rows[id] = ep.inEdges[lo:hi:hi]
			s.inIDs.rows[id] = ep.inIDs[lo:hi:hi]
		}
		if n.Kind == KindPage {
			if lo, hi := ep.visitsOff[id], ep.visitsOff[id+1]; hi > lo {
				s.pageVisits[id] = ep.visitIDs[lo:hi:hi]
			}
		}
	}
	if len(ep.downloads) > 0 {
		s.downloads = ep.downloads[:len(ep.downloads):len(ep.downloads)]
	}

	// Secondary B-trees from the persisted sorted streams; a stream that
	// fails to decode falls back to a scan rebuild — slower, always
	// correct (the ascending scan makes the latest term instance win,
	// matching live index semantics).
	if err := loadSortedIndex(urlIdxP, "url index", maxID,
		func(id NodeID) string { return slab[id].URL }, s.urlIndex); err != nil {
		s.urlIndex = storage.NewBTree()
		for id := NodeID(1); id <= maxID; id++ {
			if slab[id].Kind == KindPage {
				s.urlIndex.Put([]byte(slab[id].URL), uint64(id))
			}
		}
	}
	if err := loadSortedIndex(termIdxP, "term index", maxID,
		func(id NodeID) string { return slab[id].Text }, s.termIndex); err != nil {
		s.termIndex = storage.NewBTree()
		for id := NodeID(1); id <= maxID; id++ {
			if slab[id].Kind == KindSearchTerm {
				s.termIndex.Put([]byte(slab[id].Text), uint64(id))
			}
		}
	}
	{
		var keyBuf []byte
		i := 0
		s.openIndex.BulkLoad(func() ([]byte, uint64, bool) {
			if i >= len(ep.open) {
				return nil, 0, false
			}
			ent := ep.open[i]
			i++
			keyBuf = appendTimeKey(keyBuf[:0], microTime(ent.at), ent.id)
			return keyBuf, uint64(ent.id), true
		})
	}

	if s.mode == VersionEdges {
		ep.ensureMaps()
		for url, id := range ep.urlToPage {
			s.lastVisitByURL[url] = id
		}
	} else {
		for page := NodeID(1); page <= maxID; page++ {
			if lo, hi := ep.visitsOff[page], ep.visitsOff[page+1]; hi > lo {
				s.lastVisitByURL[slab[page].URL] = ep.visitIDs[hi-1]
			}
		}
	}
	s.heapLoadBytes += int64(maxID+1) * nodeStructBytes
}

// readAssemblySection restores the per-tab event-assembly state.
func (s *Store) readAssemblySection(p []byte) error {
	d := storage.NewDecoder(p)
	nn, err := d.Uvarint()
	if err != nil {
		return err
	}
	s.nextNode = NodeID(nn)
	md, err := d.Uvarint()
	if err != nil {
		return err
	}
	s.mode = VersioningMode(md)
	ntabs, err := d.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < ntabs; i++ {
		t, err := d.Varint()
		if err != nil {
			return err
		}
		v, err := d.Uvarint()
		if err != nil {
			return err
		}
		s.tabCur[int(t)] = NodeID(v)
	}
	readPending := func(m map[int]pending) error {
		np, err := d.Uvarint()
		if err != nil {
			return err
		}
		for i := uint64(0); i < np; i++ {
			t, err := d.Varint()
			if err != nil {
				return err
			}
			nd, err := d.Uvarint()
			if err != nil {
				return err
			}
			u, err := d.String()
			if err != nil {
				return err
			}
			m[int(t)] = pending{node: NodeID(nd), url: u}
		}
		return nil
	}
	if err := readPending(s.pendingSearch); err != nil {
		return err
	}
	return readPending(s.pendingForm)
}

// loadSortedIndex bulk-builds a B-tree from a persisted sorted-ID
// stream, rehydrating each entry's key from the node table via key.
func loadSortedIndex(p []byte, name string, maxID NodeID, key func(id NodeID) string, t *storage.BTree) error {
	d := storage.NewDecoder(p)
	n, err := d.Uvarint()
	if err != nil {
		return err
	}
	var keyBuf []byte
	i := uint64(0)
	var decodeErr error
	t.BulkLoad(func() ([]byte, uint64, bool) {
		if i >= n || decodeErr != nil {
			return nil, 0, false
		}
		id, err := d.Uvarint()
		if err != nil || id == 0 || NodeID(id) > maxID {
			decodeErr = fmt.Errorf("provgraph: checkpoint %s entry %d invalid (%v)", name, i, err)
			return nil, 0, false
		}
		i++
		keyBuf = append(keyBuf[:0], key(NodeID(id))...)
		return keyBuf, id, true
	})
	return decodeErr
}

package textindex

import (
	"fmt"
	"math"
	"sort"
	"unsafe"

	"browserprov/internal/storage"
)

// Frozen postings: a cold open hands LoadFrozen the checkpoint's
// postings payload (typically aliasing a memory-mapped section) and gets
// an Index that serves queries straight off the serialised stream — no
// per-term slice, no postings map, no doc-length map. One validation
// walk up front proves the stream well-formed, so the per-query decoders
// can ignore errors; queries then binary-search a small term directory
// and stream-decode just the lists they touch into pooled scratch.
//
// The frozen form itself is read-only. Documents added past its highest
// doc go to the ordinary map form as a delta that every read merges in,
// so the post-restart catch-up of a few new nodes costs only those
// nodes. A save, a forward-direction read (TermsOf/VisitTermsOf) or a
// re-add of a frozen doc thaws the frozen form into the map form in one
// pass, merging the delta, and proceeds as before.

// termRef is one entry of the frozen term directory.
type termRef struct {
	term string // aliases the payload
	off  int    // byte offset of the list's posting-count varint
	n    int    // total posting count of the list
}

type frozenPostings struct {
	data   []byte
	refs   []termRef // term-sorted (SaveUnder writes terms sorted)
	maxDoc DocID     // highest doc in the stream; the delta holds only later docs
}

// aliasStr views b as a string without copying. Safe here: the payload
// is immutable for the life of the process (checkpoint mappings are
// never unmapped, heap payloads never rewritten).
func aliasStr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// LoadFrozen parses a SaveUnder stream into a read-optimised index that
// keeps the postings serialised, referencing (not copying) data. The
// eager part is one validation walk plus the doc table (doc IDs and
// norms); the per-term posting lists stay byte-form until a query
// touches them. Callers for whom the stream may outlive data must not
// use this; Load copies instead.
func LoadFrozen(data []byte) (*Index, error) {
	d := storage.NewDecoder(data)
	ver, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if ver != persistVersion {
		return nil, fmt.Errorf("textindex: unsupported postings version %d", ver)
	}
	ix := New()
	nDocs, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	ix.docIDs = make([]DocID, nDocs)
	ix.numDocs = int(nDocs)
	var maxDoc DocID
	prev := DocID(0)
	lens := make([]uint64, nDocs)
	for i := range ix.docIDs {
		delta, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		length, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		doc := prev + DocID(delta)
		ix.docIDs[i] = doc
		lens[i] = length
		if doc > maxDoc {
			maxDoc = doc
		}
		prev = doc
	}
	// Headroom for the post-restart catch-up: the first docs added past
	// the stream extend the norm table in place instead of copying it.
	ix.invNorm = make([]float64, maxDoc+1, maxDoc+1+1024)
	for i, doc := range ix.docIDs {
		ix.invNorm[doc] = 1 / math.Sqrt(float64(lens[i]))
	}
	nTerms, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	refs := make([]termRef, 0, nTerms)
	prevTerm := ""
	for t := uint64(0); t < nTerms; t++ {
		tb, err := d.Bytes2() // aliases data
		if err != nil {
			return nil, err
		}
		term := aliasStr(tb)
		if t > 0 && term <= prevTerm {
			// Binary search needs the directory sorted; SaveUnder always
			// writes it sorted, so out-of-order terms mean corruption.
			return nil, fmt.Errorf("textindex: postings terms out of order at %q", term)
		}
		prevTerm = term
		off := len(data) - d.Remaining()
		n, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		prev = 0
		for i := uint64(0); i < n; i++ {
			delta, err := d.Uvarint()
			if err != nil {
				return nil, err
			}
			if _, err := d.Uvarint(); err != nil { // tf
				return nil, err
			}
			doc := prev + DocID(delta)
			if doc > maxDoc || ix.invNorm[doc] == 0 {
				return nil, fmt.Errorf("textindex: posting for unknown doc %d", doc)
			}
			prev = doc
		}
		refs = append(refs, termRef{term: term, off: off, n: int(n)})
	}
	ix.frozen = &frozenPostings{data: data, refs: refs, maxDoc: maxDoc}
	return ix, nil
}

// lookup binary-searches the term directory.
func (f *frozenPostings) lookup(term string) (termRef, bool) {
	i := sort.Search(len(f.refs), func(i int) bool { return f.refs[i].term >= term })
	if i < len(f.refs) && f.refs[i].term == term {
		return f.refs[i], true
	}
	return termRef{}, false
}

// appendPostings stream-decodes r's posting list restricted to docs at
// or below maxDoc into dst. The stream was validated at load, so decode
// errors cannot occur.
func (f *frozenPostings) appendPostings(dst []posting, r termRef, maxDoc DocID) []posting {
	d := storage.NewDecoder(f.data[r.off:])
	n, _ := d.Uvarint()
	prev := DocID(0)
	for i := uint64(0); i < n; i++ {
		delta, _ := d.Uvarint()
		tf, _ := d.Uvarint()
		doc := prev + DocID(delta)
		prev = doc
		if doc > maxDoc {
			break
		}
		dst = append(dst, posting{doc: doc, tf: uint32(tf)})
	}
	return dst
}

// freqUnder counts r's postings with doc at or below maxDoc.
func (f *frozenPostings) freqUnder(r termRef, maxDoc DocID) int {
	d := storage.NewDecoder(f.data[r.off:])
	n, _ := d.Uvarint()
	prev := DocID(0)
	c := 0
	for i := uint64(0); i < n; i++ {
		delta, _ := d.Uvarint()
		d.Uvarint() // tf
		doc := prev + DocID(delta)
		prev = doc
		if doc > maxDoc {
			break
		}
		c++
	}
	return c
}

// thawFrozenLocked materialises the map form (postings lists and doc
// lengths) from the frozen stream, once, ahead of any delta postings
// (whose docs all follow the stream's). Caller holds the write lock.
// Term strings and the decoded lists keep aliasing nothing — lists are
// fresh slices; term keys alias the payload, which outlives the index.
func (ix *Index) thawFrozenLocked() {
	f := ix.frozen
	if f == nil {
		return
	}
	ix.frozen = nil
	d := storage.NewDecoder(f.data)
	d.Uvarint() // version
	nDocs, _ := d.Uvarint()
	prev := DocID(0)
	for i := uint64(0); i < nDocs; i++ {
		delta, _ := d.Uvarint()
		length, _ := d.Uvarint()
		doc := prev + DocID(delta)
		ix.docLen[doc] = int(length)
		prev = doc
	}
	delta := ix.postings
	ix.postings = make(map[string][]posting, len(f.refs)+len(delta))
	for _, r := range f.refs {
		pl := make([]posting, 0, r.n+len(delta[r.term]))
		ix.postings[r.term] = append(f.appendPostings(pl, r, ^DocID(0)), delta[r.term]...)
	}
	for term, pl := range delta {
		if _, ok := ix.postings[term]; !ok {
			ix.postings[term] = pl
		}
	}
	// The forward direction stays deferred (see fwdStale): thawing for a
	// write must not force the O(postings) forward rebuild too.
	ix.fwdStale = true
}

// rlockPostings takes the read lock, first thawing the frozen form if a
// caller needs the map-form postings (SaveUnder does; queries don't).
func (ix *Index) rlockPostings() {
	ix.mu.RLock()
	if ix.frozen == nil {
		return
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	ix.thawFrozenLocked()
	ix.mu.Unlock()
	ix.mu.RLock()
}

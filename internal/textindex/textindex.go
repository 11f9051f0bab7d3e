// Package textindex implements the textual search baseline: a tokenizer,
// an in-memory inverted index with TF-IDF scoring, and postings
// compression for the on-disk form.
//
// Textual history search over titles and URLs is what stock browsers
// ship (Firefox 3's "smart location bar", Chrome's New Tab history
// search); the paper's contextual search uses it as its first stage and
// its comparison baseline: "the algorithm performs a textual search and
// then reorders results by the relevance of their provenance neighbors."
package textindex

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"

	"browserprov/internal/topk"
)

// DocID identifies an indexed document (the caller's node or place ID).
type DocID uint64

// Tokenize splits text into lowercase alphanumeric terms. URL separators
// count as breaks, so "films.example/citizen-kane" yields "films",
// "example", "citizen", "kane".
func Tokenize(text string) []string { return AppendTokens(nil, text) }

// AppendTokens is Tokenize into a caller-reused slice: hot paths that
// tokenize in a loop (the personalisation term fold) recycle one buffer
// instead of allocating a slice per call.
func AppendTokens(dst []string, text string) []string {
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			dst = append(dst, cur.String())
			cur.Reset()
		}
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return dst
}

// stopwords are dropped at both index and query time. The list covers
// URL plumbing, browser chrome ("... - Web Search" result-page titles,
// "q=" parameters) and trivial English function words only.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "the": true, "of": true,
	"in": true, "on": true, "to": true, "for": true, "is": true,
	"http": true, "https": true, "www": true, "com": true, "org": true,
	"net": true, "html": true, "htm": true, "php": true, "index": true,
	"example": true, // the synthetic web's TLD
	"search":  true, "web": true, "q": true, "home": true, "page": true,
}

// IsStopword reports whether term is dropped by the index.
func IsStopword(term string) bool { return stopwords[term] }

type posting struct {
	doc DocID
	tf  uint32
}

// Index is an inverted index with TF-IDF ranking. It is safe for
// concurrent use.
//
// The index is append-only (documents are never removed, and each doc's
// terms are fixed once added), and posting lists plus docIDs are kept
// sorted by DocID. That makes SearchUnder/NumDocsUnder/DocFreqUnder —
// the corpus restricted to docs at or below a watermark — one binary
// search per term, which is how epoch-pinned queries stay deterministic
// while the shared index grows past their snapshot.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]posting
	forward  map[DocID]map[string]int // doc -> term -> tf
	// fwdStale marks a postings-loaded index whose forward maps have
	// not been materialised yet. The forward direction duplicates the
	// postings and only term-analysis paths (Personalize) and further
	// Adds need it, so a cold open defers the ~O(postings) rebuild —
	// often forever on a read-mostly restart.
	fwdStale bool
	// frozen, when non-nil, holds the postings in their serialised form
	// (typically aliasing a mapped checkpoint section); the postings,
	// forward and docLen maps then hold only the docs added since, until
	// a save, forward read or re-add thaws it. See frozen.go.
	frozen  *frozenPostings
	docLen  map[DocID]int
	docIDs  []DocID // all indexed docs, sorted ascending
	numDocs int
	// invNorm holds 1/sqrt(docLen) indexed directly by DocID (doc IDs
	// are dense node IDs, so the array is small and O(1) to consult).
	// Precomputing it at Add time removes a sqrt + map lookup per
	// posting from the scoring loop.
	invNorm []float64
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]posting),
		forward:  make(map[DocID]map[string]int),
		docLen:   make(map[DocID]int),
	}
}

// Add indexes the given fields of doc. Adding the same doc twice stacks
// its terms (useful for incremental title upgrades); documents are never
// removed (history is append-only).
func (ix *Index) Add(doc DocID, fields ...string) {
	counts := make(map[string]uint32)
	total := 0
	for _, f := range fields {
		for _, term := range Tokenize(f) {
			if stopwords[term] {
				continue
			}
			counts[term]++
			total++
		}
	}
	if total == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.frozen != nil && doc <= ix.frozen.maxDoc {
		ix.thawFrozenLocked()
	}
	if _, known := ix.docLen[doc]; known {
		// Only a re-add (stacking terms onto an existing doc) consults
		// prior forward state; brand-new docs — the only thing the
		// engine's post-restart catch-up produces — must not force the
		// deferred O(postings) forward rebuild.
		ix.buildForwardLocked()
	}
	if _, known := ix.docLen[doc]; !known {
		ix.numDocs++
		ix.forward[doc] = make(map[string]int)
		// Docs arrive in ascending ID order in the common case (the
		// engine indexes from a monotonic node-ID watermark); fall back
		// to sorted insert otherwise.
		if n := len(ix.docIDs); n == 0 || ix.docIDs[n-1] < doc {
			ix.docIDs = append(ix.docIDs, doc)
		} else {
			i := sort.Search(len(ix.docIDs), func(i int) bool { return ix.docIDs[i] >= doc })
			ix.docIDs = append(ix.docIDs, 0)
			copy(ix.docIDs[i+1:], ix.docIDs[i:])
			ix.docIDs[i] = doc
		}
	}
	ix.docLen[doc] += total
	if n := int(doc) + 1 - len(ix.invNorm); n > 0 {
		ix.invNorm = append(ix.invNorm, make([]float64, n)...)
	}
	ix.invNorm[doc] = 1 / math.Sqrt(float64(ix.docLen[doc]))
	fwd := ix.forward[doc]
	for term, tf := range counts {
		// The forward map knows whether this doc already holds the term,
		// so a re-add never scans the posting list; posting lists are
		// kept sorted by doc, so the merge target is a binary search
		// away. Common terms therefore cost O(log postings) instead of
		// the O(postings) scan that made bulk indexing quadratic.
		had := fwd[term] > 0
		fwd[term] += int(tf)
		pl := ix.postings[term]
		if had {
			i := sort.Search(len(pl), func(i int) bool { return pl[i].doc >= doc })
			pl[i].tf += tf
			continue
		}
		// New (term, doc) pair: docs are indexed in ascending ID order in
		// the common case, so appending keeps the list sorted; otherwise
		// insert at the sorted position.
		if n := len(pl); n == 0 || pl[n-1].doc < doc {
			ix.postings[term] = append(pl, posting{doc: doc, tf: tf})
			continue
		}
		i := sort.Search(len(pl), func(i int) bool { return pl[i].doc >= doc })
		pl = append(pl, posting{})
		copy(pl[i+1:], pl[i:])
		pl[i] = posting{doc: doc, tf: tf}
		ix.postings[term] = pl
	}
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.numDocs
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := len(ix.postings)
	if ix.frozen != nil {
		n += len(ix.frozen.refs)
		for term := range ix.postings {
			if _, ok := ix.frozen.lookup(term); ok {
				n--
			}
		}
	}
	return n
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	term = strings.ToLower(term)
	n := len(ix.postings[term])
	if ix.frozen != nil {
		r, _ := ix.frozen.lookup(term)
		n += r.n
	}
	return n
}

// cutUnder returns the prefix of the doc-sorted posting list pl holding
// docs at or below maxDoc.
func cutUnder(pl []posting, maxDoc DocID) []posting {
	return pl[:sort.Search(len(pl), func(i int) bool { return pl[i].doc > maxDoc })]
}

// NumDocsUnder returns the number of indexed documents with ID at or
// below maxDoc — the corpus size an epoch pinned at that watermark sees.
func (ix *Index) NumDocsUnder(maxDoc DocID) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return sort.Search(len(ix.docIDs), func(i int) bool { return ix.docIDs[i] > maxDoc })
}

// DocFreqUnder returns the number of documents with ID at or below
// maxDoc containing term.
func (ix *Index) DocFreqUnder(term string, maxDoc DocID) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	term = strings.ToLower(term)
	n := len(cutUnder(ix.postings[term], maxDoc))
	if ix.frozen != nil {
		if r, ok := ix.frozen.lookup(term); ok {
			n += ix.frozen.freqUnder(r, maxDoc)
		}
	}
	return n
}

// Result is one search hit.
type Result struct {
	Doc   DocID
	Score float64
}

// Search ranks documents against the query by TF-IDF with length
// normalisation. All query terms are optional (OR semantics); documents
// matching more terms naturally score higher. Results are sorted by
// descending score (ties by DocID for determinism) and truncated to
// limit if limit > 0.
func (ix *Index) Search(query string, limit int) []Result {
	return ix.SearchUnder(query, limit, ^DocID(0))
}

// searchScratch is the pooled per-query scoring slab: a dense score
// array indexed by DocID with a generation-stamp array, so clearing
// between queries is one counter bump instead of an O(docs) wipe (or
// the map churn this replaced — hash insertion per posting was the
// single hottest line of the contextual-search profile).
type searchScratch struct {
	score   []float64
	stamp   []uint32
	gen     uint32
	touched []DocID
	results []Result  // candidate buffer handed to top-k selection
	pl      []posting // frozen-postings decode buffer
}

var searchPool = sync.Pool{New: func() any { return new(searchScratch) }}

func (sc *searchScratch) reset(n int) {
	if len(sc.score) < n {
		sc.score = make([]float64, n)
		sc.stamp = make([]uint32, n)
		sc.gen = 0
	}
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
	sc.touched = sc.touched[:0]
}

// resultBefore is the ranking order: descending score, ascending DocID
// as the deterministic tiebreak.
func resultBefore(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// SearchUnder is Search restricted to documents with ID at or below
// maxDoc: both the candidate set and the IDF statistics come from that
// bounded corpus. Posting lists are doc-sorted, so the restriction is
// one binary search per query term. Epoch-pinned queries pass their
// snapshot's max node ID, making results fully deterministic — the
// top-limit cut, scores and ranks cannot shift as writers index new
// documents past the watermark (a doc's terms are fixed once added).
//
// Scoring accumulates into a pooled dense slab (doc IDs are dense node
// IDs) and the top-limit cut is a bounded-heap selection, so a query
// that touches 40k candidate docs to return 200 never sorts 40k
// entries or hashes a single one.
func (ix *Index) SearchUnder(query string, limit int, maxDoc DocID) []Result {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	numDocs := ix.numDocs
	if maxDoc != ^DocID(0) {
		numDocs = sort.Search(len(ix.docIDs), func(i int) bool { return ix.docIDs[i] > maxDoc })
	}
	sc := searchPool.Get().(*searchScratch)
	defer searchPool.Put(sc)
	sc.reset(len(ix.invNorm))
	for _, term := range Tokenize(query) {
		if stopwords[term] {
			continue
		}
		pl := cutUnder(ix.postings[term], maxDoc)
		if ix.frozen != nil {
			if r, ok := ix.frozen.lookup(term); ok {
				sc.pl = append(ix.frozen.appendPostings(sc.pl[:0], r, maxDoc), pl...)
				pl = sc.pl
			}
		}
		if len(pl) == 0 {
			continue
		}
		idf := math.Log(1 + float64(numDocs)/float64(len(pl)))
		for _, p := range pl {
			w := (1 + math.Log(float64(p.tf))) * idf * ix.invNorm[p.doc]
			if sc.stamp[p.doc] != sc.gen {
				sc.stamp[p.doc] = sc.gen
				sc.score[p.doc] = w
				sc.touched = append(sc.touched, p.doc)
				continue
			}
			sc.score[p.doc] += w
		}
	}
	sc.results = sc.results[:0]
	for _, d := range sc.touched {
		sc.results = append(sc.results, Result{Doc: d, Score: sc.score[d]})
	}
	// Select into the pooled candidate buffer; only the final cut is
	// copied out (the returned slice must not alias pooled memory).
	top := topk.Select(sc.results, limit, resultBefore)
	out := make([]Result, len(top))
	copy(out, top)
	return out
}

// Terms returns up to limit indexed terms in descending document
// frequency (0 = all). Experiments use it to draw realistic query terms
// from the history's own vocabulary.
func (ix *Index) Terms(limit int) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	terms := make([]string, 0, len(ix.postings))
	df := func(term string) int { return len(ix.postings[term]) }
	if ix.frozen != nil {
		for _, r := range ix.frozen.refs {
			terms = append(terms, r.term)
		}
		df = func(term string) int { r, _ := ix.frozen.lookup(term); return r.n + len(ix.postings[term]) }
	}
	for t := range ix.postings {
		if ix.frozen == nil {
			terms = append(terms, t)
		} else if _, ok := ix.frozen.lookup(t); !ok {
			terms = append(terms, t)
		}
	}
	sort.Slice(terms, func(i, j int) bool {
		di, dj := df(terms[i]), df(terms[j])
		if di != dj {
			return di > dj
		}
		return terms[i] < terms[j]
	})
	if limit > 0 && len(terms) > limit {
		terms = terms[:limit]
	}
	return terms
}

// buildForwardLocked materialises the forward maps from the postings
// after a postings-only load. Caller holds the write lock. Idempotent.
func (ix *Index) buildForwardLocked() {
	if !ix.fwdStale {
		return
	}
	ix.fwdStale = false
	for term, pl := range ix.postings {
		for _, p := range pl {
			fwd := ix.forward[p.doc]
			if fwd == nil {
				fwd = make(map[string]int)
				ix.forward[p.doc] = fwd
			}
			fwd[term] = int(p.tf)
		}
	}
}

// rlockForward takes the read lock, first materialising the forward
// maps if a postings-only load deferred them. Callers must RUnlock.
func (ix *Index) rlockForward() {
	ix.mu.RLock()
	if !ix.fwdStale && ix.frozen == nil {
		return
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	ix.thawFrozenLocked()
	ix.buildForwardLocked()
	ix.mu.Unlock()
	ix.mu.RLock()
}

// TermsOf returns the indexed terms of doc with their frequencies.
// The returned map is a copy; callers that only iterate should use
// VisitTermsOf, which copies nothing.
func (ix *Index) TermsOf(doc DocID) map[string]int {
	ix.rlockForward()
	defer ix.mu.RUnlock()
	fwd := ix.forward[doc]
	out := make(map[string]int, len(fwd))
	for term, tf := range fwd {
		out[term] = tf
	}
	return out
}

// VisitTermsOf streams the indexed terms of doc with their frequencies,
// stopping early if fn returns false. It allocates nothing — the
// personalisation query calls it once per neighborhood page, where the
// per-call map copy of TermsOf dominated. fn runs under the index read
// lock and must not call back into the index.
func (ix *Index) VisitTermsOf(doc DocID, fn func(term string, tf int) bool) {
	ix.rlockForward()
	defer ix.mu.RUnlock()
	for term, tf := range ix.forward[doc] {
		if !fn(term, tf) {
			return
		}
	}
}

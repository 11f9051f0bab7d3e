package experiment

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"browserprov/internal/query"
)

// ---- E2: query latency ----

// LatencyDist summarises a latency sample.
type LatencyDist struct {
	N      int
	Median time.Duration
	P90    time.Duration
	Max    time.Duration
	// UnderBoundPct is the fraction of queries completing inside the
	// paper's 200 ms bound, as a percentage.
	UnderBoundPct float64
	// TruncatedPct is the fraction cut short by the budget (with the
	// budget enabled these still return inside the bound — the paper's
	// "can be bound to that time in the remaining cases").
	TruncatedPct float64
}

func summarize(samples []time.Duration, truncated int) LatencyDist {
	if len(samples) == 0 {
		return LatencyDist{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	under := 0
	for _, s := range samples {
		if s < PaperQueryBound {
			under++
		}
	}
	return LatencyDist{
		N:             len(samples),
		Median:        samples[len(samples)/2],
		P90:           samples[len(samples)*9/10],
		Max:           samples[len(samples)-1],
		UnderBoundPct: 100 * float64(under) / float64(len(samples)),
		TruncatedPct:  100 * float64(truncated) / float64(len(samples)),
	}
}

// E2Result holds latency distributions for the four use-case queries.
type E2Result struct {
	Contextual  LatencyDist
	Personalize LatencyDist
	TimeContext LatencyDist
	Lineage     LatencyDist
	PaperBound  time.Duration
}

// E2Queries is the sample size per query type.
const E2Queries = 100

// RunE2 measures the four §2 queries over the workload's provenance
// store. Query terms are drawn from the history's own vocabulary
// (weighted toward common terms, as real history searches are); lineage
// queries run from every download (cycled to fill the sample).
func RunE2(w *Workload, opts query.Options) E2Result {
	ctx := context.Background()
	eng := query.NewEngine(w.Prov, opts)
	v := eng.View()
	rng := rand.New(rand.NewSource(1009))
	vocab := eng.Index().Terms(500)
	if len(vocab) == 0 {
		vocab = []string{"wine"}
	}
	term := func() string { return vocab[rng.Intn(len(vocab))] }

	var r E2Result
	r.PaperBound = PaperQueryBound

	var samples []time.Duration
	trunc := 0
	for i := 0; i < E2Queries; i++ {
		_, meta, _ := v.Search(ctx, term(), 20)
		samples = append(samples, meta.Elapsed)
		if meta.Truncated {
			trunc++
		}
	}
	r.Contextual = summarize(samples, trunc)

	samples, trunc = nil, 0
	for i := 0; i < E2Queries; i++ {
		_, meta, _ := v.Personalize(ctx, term(), 5)
		samples = append(samples, meta.Elapsed)
		if meta.Truncated {
			trunc++
		}
	}
	r.Personalize = summarize(samples, trunc)

	samples, trunc = nil, 0
	for i := 0; i < E2Queries; i++ {
		_, meta, _ := v.TimeContextualSearch(ctx, term(), term(), 20)
		samples = append(samples, meta.Elapsed)
		if meta.Truncated {
			trunc++
		}
	}
	r.TimeContext = summarize(samples, trunc)

	samples, trunc = nil, 0
	downloads := w.Prov.Snapshot().Downloads()
	for i := 0; i < E2Queries; i++ {
		var meta query.Meta
		if len(downloads) > 0 {
			_, meta, _ = v.DownloadLineage(ctx, downloads[i%len(downloads)])
		}
		samples = append(samples, meta.Elapsed)
		if meta.Truncated {
			trunc++
		}
	}
	r.Lineage = summarize(samples, trunc)
	return r
}

// ---- E4: result quality ----

// E4Result reports, per §2 scenario, whether the provenance query found
// the ground truth and at what rank, next to the textual baseline.
type E4Result struct {
	// RosebudRank is the contextual-search rank (1-based) of Citizen
	// Kane; 0 = not found. RosebudBaselineRank is the textual search's.
	RosebudRank         int
	RosebudBaselineRank int
	// GardenerTermFound reports whether a garden-associated term was
	// suggested for "rosebud", and which.
	GardenerTermFound bool
	GardenerTerm      string
	// WineRank is the time-contextual rank of the wine page that was
	// open with plane tickets; WineBaselineRank its plain-text rank.
	WineRank         int
	WineBaselineRank int
	// MalwareLineageOK reports the lineage ending at the forum;
	// MalwareDescendants is how many of the payloads the descendant scan
	// found (want all).
	MalwareLineageOK       bool
	MalwareDescendants     int
	MalwareDescendantsWant int
}

// RunE4 evaluates the scenario ground truth injected by Build against
// both the provenance queries and the textual baseline.
func RunE4(w *Workload, opts query.Options) E4Result {
	truth := w.Truth
	ctx := context.Background()
	v := query.NewEngine(w.Prov, opts).View()
	var r E4Result

	rank := func(hits []query.PageHit, url string) int {
		for i, h := range hits {
			if h.URL == url {
				return i + 1
			}
		}
		return 0
	}

	hits, _, _ := v.Search(ctx, truth.RosebudQuery, 50)
	r.RosebudRank = rank(hits, truth.RosebudExpected)
	base, _, _ := v.TextualSearch(ctx, truth.RosebudQuery, 0)
	r.RosebudBaselineRank = rank(base, truth.RosebudExpected)

	suggestions, _, _ := v.Personalize(ctx, truth.GardenerQuery, 8)
	for _, s := range suggestions {
		for _, want := range truth.GardenerTerms {
			if s.Term == want && !r.GardenerTermFound {
				r.GardenerTermFound = true
				r.GardenerTerm = s.Term
			}
		}
	}

	timeHits, _, _ := v.TimeContextualSearch(ctx, truth.WineQuery, truth.WineAnchor, 50)
	for i, h := range timeHits {
		if h.URL == truth.WineTarget {
			r.WineRank = i + 1
			break
		}
	}
	wineBase, _, _ := v.TextualSearch(ctx, truth.WineQuery, 0)
	r.WineBaselineRank = rank(wineBase, truth.WineTarget)

	sn := w.Prov.Snapshot()
	for _, id := range sn.Downloads() {
		n, _ := sn.NodeByID(id)
		if n.Text != truth.MalwareSave {
			continue
		}
		lin, _, _ := v.DownloadLineage(ctx, id)
		if lin.Found {
			last := lin.Path[len(lin.Path)-1]
			r.MalwareLineageOK = hasPrefix(last.URL, truth.MalwareAncestor)
		}
		break
	}
	dls, _, _ := v.DescendantDownloads(ctx, truth.MalwareUntrusted)
	found := map[string]bool{}
	for _, d := range dls {
		found[d.Text] = true
	}
	for _, want := range truth.MalwareDownloads {
		if found[want] {
			r.MalwareDescendants++
		}
	}
	r.MalwareDescendantsWant = len(truth.MalwareDownloads)
	return r
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

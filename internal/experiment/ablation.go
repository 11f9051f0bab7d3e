package experiment

import (
	"context"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

// ---- E5: design-choice ablations (§3.1–3.2) ----

// ModeReport characterises one versioning scheme.
type ModeReport struct {
	Mode provgraph.VersioningMode
	// Nodes and Edges are graph sizes under the scheme.
	Nodes int
	Edges int
	// Bytes is the checkpointed store size.
	Bytes int64
	// DAG reports whether the node graph is acyclic (the §3.1 invariant;
	// expected true for node versioning, typically false for edge
	// timestamps once a browse loop occurs).
	DAG bool
	// RosebudRank is contextual-search quality under the scheme (rank of
	// the ground-truth page; 0 = missed).
	RosebudRank int
	// ContextualMedian is the median contextual-search latency.
	ContextualMedian time.Duration
}

// LensReport measures the §3.2 redirect/embed unification.
type LensReport struct {
	// RawRedirectHits / LensRedirectHits count redirect-hop pages in the
	// top-20 contextual results, summed over the sampled queries. The
	// lens should drive this to ~0 without losing the ground truth.
	RawRedirectHits  int
	LensRedirectHits int
	// RosebudRankRaw / RosebudRankLens confirm the ground truth
	// survives the lens.
	RosebudRankRaw  int
	RosebudRankLens int
}

// HITSReport measures blending HITS authority scores into contextual
// ranking (the paper names HITS as the family its expansion resembles).
type HITSReport struct {
	RosebudRankOff int
	RosebudRankOn  int
	MedianOff      time.Duration
	MedianOn       time.Duration
}

// E5Result is the ablation table.
type E5Result struct {
	NodeVersioning ModeReport
	EdgeVersioning ModeReport
	Lens           LensReport
	HITS           HITSReport
}

// RunE5 builds one workload per versioning mode under cfg.Dir and
// measures storage, invariants and quality for each; it then measures
// the lens ablation on the node-versioned store.
func RunE5(cfg Config) (E5Result, error) {
	var out E5Result

	for _, mode := range []provgraph.VersioningMode{provgraph.VersionNodes, provgraph.VersionEdges} {
		sub := cfg
		sub.Mode = mode
		sub.Dir = cfg.Dir + "/" + mode.String()
		w, err := Build(sub)
		if err != nil {
			return out, err
		}
		rep, lens, err := measureMode(w, mode)
		if err != nil {
			w.Close()
			return out, err
		}
		if mode == provgraph.VersionNodes {
			out.NodeVersioning = rep
			out.Lens = lens
			out.HITS = measureHITS(w)
		} else {
			out.EdgeVersioning = rep
		}
		w.Close()
	}
	return out, nil
}

// measureHITS compares contextual search with and without the HITS
// blending stage. One engine serves both arms: the blend is a per-call
// option, so the two configurations share the snapshot and text index
// instead of each paying a full re-index.
func measureHITS(w *Workload) HITSReport {
	ctx := context.Background()
	v := query.NewEngine(w.Prov, query.Options{}).View()
	rank := func(opts ...query.Option) int {
		hits, _, _ := v.Search(ctx, w.Truth.RosebudQuery, 50, opts...)
		for i, h := range hits {
			if h.URL == w.Truth.RosebudExpected {
				return i + 1
			}
		}
		return 0
	}
	median := func(opts ...query.Option) time.Duration {
		vocab := v.Engine().Index().Terms(50)
		var samples []time.Duration
		for i := 0; i < 20 && len(vocab) > 0; i++ {
			_, meta, _ := v.Search(ctx, vocab[i%len(vocab)], 20, opts...)
			samples = append(samples, meta.Elapsed)
		}
		return summarize(samples, 0).Median
	}
	return HITSReport{
		RosebudRankOff: rank(), RosebudRankOn: rank(query.WithHITS(true)),
		MedianOff: median(), MedianOn: median(query.WithHITS(true)),
	}
}

func measureMode(w *Workload, mode provgraph.VersioningMode) (ModeReport, LensReport, error) {
	rep := ModeReport{Mode: mode}
	if err := w.Prov.Checkpoint(); err != nil {
		return rep, LensReport{}, err
	}
	st := w.Prov.Snapshot().Stats()
	rep.Nodes, rep.Edges = st.Nodes, st.Edges
	rep.Bytes = w.Prov.SizeOnDisk()
	rep.DAG = w.Prov.VerifyDAG() == nil

	ctx := context.Background()
	v := query.NewEngine(w.Prov, query.Options{}).View()
	hits, _, _ := v.Search(ctx, w.Truth.RosebudQuery, 50)
	for i, h := range hits {
		if h.URL == w.Truth.RosebudExpected {
			rep.RosebudRank = i + 1
			break
		}
	}
	// Median latency over a small sample.
	var samples []time.Duration
	vocab := v.Engine().Index().Terms(100)
	for i := 0; i < 25 && len(vocab) > 0; i++ {
		_, meta, _ := v.Search(ctx, vocab[i%len(vocab)], 20)
		samples = append(samples, meta.Elapsed)
	}
	rep.ContextualMedian = summarize(samples, 0).Median

	var lens LensReport
	if mode == provgraph.VersionNodes {
		lens = measureLens(w)
	}
	return rep, lens, nil
}

// measureLens runs the same queries through the raw graph and the
// splicing lens, counting redirect hops that surface in results. Both
// arms are the same View; WithRawGraph flips the traversal per call.
func measureLens(w *Workload) LensReport {
	var out LensReport
	ctx := context.Background()
	v := query.NewEngine(w.Prov, query.Options{}).View()
	raw := []query.Option{query.WithRawGraph(true)}

	// A page is a redirect hop if any of its visits has an outgoing
	// redirect edge.
	sn := w.Prov.Snapshot()
	isRedirectHop := func(page provgraph.NodeID) bool {
		for _, v := range sn.VisitsOfPage(page) {
			for _, e := range sn.OutEdges(v) {
				if e.Kind == provgraph.EdgeRedirectPermanent || e.Kind == provgraph.EdgeRedirectTemporary {
					return true
				}
			}
		}
		return false
	}

	vocab := v.Engine().Index().Terms(100)
	for i := 0; i < 25 && len(vocab) > 0; i++ {
		q := vocab[i%len(vocab)]
		rh, _, _ := v.Search(ctx, q, 20, raw...)
		lh, _, _ := v.Search(ctx, q, 20)
		for _, h := range rh {
			if isRedirectHop(h.Page) {
				out.RawRedirectHits++
			}
		}
		for _, h := range lh {
			if isRedirectHop(h.Page) {
				out.LensRedirectHits++
			}
		}
	}
	rank := func(opts ...query.Option) int {
		hits, _, _ := v.Search(ctx, w.Truth.RosebudQuery, 50, opts...)
		for i, h := range hits {
			if h.URL == w.Truth.RosebudExpected {
				return i + 1
			}
		}
		return 0
	}
	out.RosebudRankRaw = rank(raw...)
	out.RosebudRankLens = rank()
	return out
}

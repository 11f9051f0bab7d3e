// Benchmarks regenerating the paper's evaluation, one per experiment in
// DESIGN.md (the paper has no numbered tables/figures; its §4 claims are
// the experiment index). Custom metrics carry the paper-comparable
// numbers: overhead_pct for E1, query latency for E2a–E2d, nodes/day for
// E3, result ranks for E4, and the ablation deltas for E5.
//
// Run with:
//
//	go test -bench=. -benchmem
package browserprov

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/experiment"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

// benchWorkload builds the full 79-day, 25k-node workload once and
// shares it across benchmarks.
var (
	benchOnce sync.Once
	benchW    *experiment.Workload
	benchEng  *query.Engine
	benchDir  string
)

func workload(b *testing.B) (*experiment.Workload, *query.Engine) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchDir, err = os.MkdirTemp("", "browserprov-bench-*")
		if err != nil {
			panic(err)
		}
		benchW, err = experiment.Build(experiment.Config{Seed: 1, Days: experiment.PaperDays, Dir: benchDir})
		if err != nil {
			panic(err)
		}
		// Converge to the sealed steady state before measuring: reseals
		// run in the background now, so the tail the build left behind
		// would otherwise vary run to run.
		benchW.Prov.ForceReseal()
		benchW.Prov.WaitReseal()
		benchEng = query.NewEngine(benchW.Prov, query.Options{})
	})
	return benchW, benchEng
}

// BenchmarkE1StorageOverhead measures checkpointing both stores and
// reports the schema overhead the paper puts at 39.5 %.
func BenchmarkE1StorageOverhead(b *testing.B) {
	w, _ := workload(b)
	var r experiment.E1Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiment.RunE1(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.OverheadPct, "overhead_%")
	b.ReportMetric(experiment.PaperOverheadPct, "paper_overhead_%")
	b.ReportMetric(float64(r.ProvBytes), "prov_bytes")
	b.ReportMetric(float64(r.PlacesBytes), "places_bytes")
}

// benchTerms returns query terms drawn from the workload vocabulary.
func benchTerms(eng *query.Engine) []string {
	terms := eng.Index().Terms(64)
	if len(terms) == 0 {
		return []string{"wine"}
	}
	return terms
}

// BenchmarkE2aContextualSearch is the §2.1 query on the 25k-node store;
// the paper bounds it below 200 ms.
func BenchmarkE2aContextualSearch(b *testing.B) {
	ctx := context.Background()
	_, eng := workload(b)
	terms := benchTerms(eng)
	b.ReportAllocs()
	b.ResetTimer()
	var under int
	for i := 0; i < b.N; i++ {
		_, meta, _ := eng.View().Search(ctx, terms[i%len(terms)], 20)
		if meta.Elapsed < experiment.PaperQueryBound {
			under++
		}
	}
	b.ReportMetric(100*float64(under)/float64(b.N), "under200ms_%")
}

// BenchmarkE2bPersonalize is the §2.2 term-analysis query.
func BenchmarkE2bPersonalize(b *testing.B) {
	ctx := context.Background()
	_, eng := workload(b)
	terms := benchTerms(eng)
	b.ReportAllocs()
	b.ResetTimer()
	var under int
	for i := 0; i < b.N; i++ {
		_, meta, _ := eng.View().Personalize(ctx, terms[i%len(terms)], 5)
		if meta.Elapsed < experiment.PaperQueryBound {
			under++
		}
	}
	b.ReportMetric(100*float64(under)/float64(b.N), "under200ms_%")
}

// BenchmarkE2cTimeContext is the §2.3 interval-overlap query.
func BenchmarkE2cTimeContext(b *testing.B) {
	ctx := context.Background()
	_, eng := workload(b)
	terms := benchTerms(eng)
	b.ReportAllocs()
	b.ResetTimer()
	var under int
	for i := 0; i < b.N; i++ {
		_, meta, _ := eng.View().TimeContextualSearch(ctx, terms[i%len(terms)], terms[(i+7)%len(terms)], 20)
		if meta.Elapsed < experiment.PaperQueryBound {
			under++
		}
	}
	b.ReportMetric(100*float64(under)/float64(b.N), "under200ms_%")
}

// BenchmarkE2dLineage is the §2.4 ancestor BFS.
func BenchmarkE2dLineage(b *testing.B) {
	ctx := context.Background()
	w, eng := workload(b)
	downloads := w.Prov.Snapshot().Downloads()
	if len(downloads) == 0 {
		b.Skip("no downloads in workload")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var under int
	for i := 0; i < b.N; i++ {
		_, meta, _ := eng.View().DownloadLineage(ctx, downloads[i%len(downloads)])
		if meta.Elapsed < experiment.PaperQueryBound {
			under++
		}
	}
	b.ReportMetric(100*float64(under)/float64(b.N), "under200ms_%")
}

// BenchmarkE3Ingest measures event-application throughput into the
// provenance store (the feasibility side of the paper's scale claim:
// 25k nodes over 79 days is trivially ingestible on a laptop).
func BenchmarkE3Ingest(b *testing.B) {
	dir := b.TempDir()
	s, err := provgraph.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	base := time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &event.Event{
			Time: base.Add(time.Duration(i) * time.Second),
			Type: event.TypeVisit, Tab: 1,
			URL:        fmt.Sprintf("http://site%d.example/p%d", i%200, i%1000),
			Title:      "Benchmark page",
			Transition: event.TransLink,
		}
		if i%37 == 0 {
			ev.Transition = event.TransTyped
		}
		if err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Paper scale context: nodes accumulated per simulated day at the
	// paper's rate of ~316/day.
	b.ReportMetric(float64(s.Snapshot().Stats().Nodes), "nodes")
}

// BenchmarkE4Quality runs the four §2 scenario queries and reports their
// ground-truth ranks (rosebud_rank=0 would mean the headline use case
// regressed; baseline_rank is expected to stay 0 = miss).
func BenchmarkE4Quality(b *testing.B) {
	w, _ := workload(b)
	var r experiment.E4Result
	for i := 0; i < b.N; i++ {
		r = experiment.RunE4(w, query.Options{})
	}
	b.ReportMetric(float64(r.RosebudRank), "rosebud_rank")
	b.ReportMetric(float64(r.RosebudBaselineRank), "rosebud_baseline_rank")
	b.ReportMetric(float64(r.WineRank), "wine_rank")
	b.ReportMetric(boolMetric(r.GardenerTermFound), "gardener_found")
	b.ReportMetric(boolMetric(r.MalwareLineageOK), "malware_lineage_ok")
	b.ReportMetric(float64(r.MalwareDescendants), "malware_payloads_found")
}

// BenchmarkE5Ablation compares the §3.1 versioning schemes end to end
// (build + measure); heavier than the others, so it uses a 10-day
// workload per scheme.
func BenchmarkE5Ablation(b *testing.B) {
	var r experiment.E5Result
	for i := 0; i < b.N; i++ {
		dir, err := os.MkdirTemp("", "browserprov-e5-*")
		if err != nil {
			b.Fatal(err)
		}
		r, err = experiment.RunE5(experiment.Config{Seed: 1, Days: 10, Dir: dir})
		os.RemoveAll(dir)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(boolMetric(r.NodeVersioning.DAG), "nodes_mode_dag")
	b.ReportMetric(boolMetric(r.EdgeVersioning.DAG), "edges_mode_dag")
	b.ReportMetric(float64(r.NodeVersioning.Bytes), "nodes_mode_bytes")
	b.ReportMetric(float64(r.EdgeVersioning.Bytes), "edges_mode_bytes")
	b.ReportMetric(float64(r.Lens.RawRedirectHits), "raw_redirect_hits")
	b.ReportMetric(float64(r.Lens.LensRedirectHits), "lens_redirect_hits")
}

// BenchmarkPublicAPISearch exercises the facade end to end (index
// maintenance included) on a small history.
func BenchmarkPublicAPISearch(b *testing.B) {
	ctx := context.Background()
	h, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	base := time.Date(2009, 2, 23, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 2000; i++ {
		ev := &Event{
			Time: base.Add(time.Duration(i) * time.Minute), Type: TypeVisit, Tab: 1,
			URL: fmt.Sprintf("http://s%d.example/p%d", i%40, i%400), Title: "bench page",
			Transition: TransTyped,
		}
		if err := h.Apply(ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.View().Search(ctx, "bench", 10)
	}
}

// buildParallelHistory builds a ≥50k-node history for the concurrent
// read-path benchmarks. 30k visit events yield ~60k nodes (page + visit
// per distinct URL, visit-only for repeats).
func buildParallelHistory() *History {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "browserprov-par-*")
	if err != nil {
		panic(err)
	}
	h, err := Open(dir)
	if err != nil {
		panic(err)
	}
	base := time.Date(2009, 2, 23, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 30000; i++ {
		ev := &Event{
			Time: base.Add(time.Duration(i) * time.Second),
			Type: TypeVisit, Tab: 1 + i%4,
			URL:        fmt.Sprintf("http://s%d.example/page-%d", i%500, i),
			Title:      fmt.Sprintf("Topic %d article %d", i%97, i),
			Transition: TransLink,
		}
		if i%31 == 0 {
			ev.Transition = TransTyped
		}
		if err := h.Apply(ev); err != nil {
			panic(err)
		}
	}
	// Converge to the sealed steady state (background reseals drained),
	// then prime the engine and index once so benchmarks measure
	// steady-state queries, not first-call indexing or seal churn.
	h.Graph().ForceReseal()
	h.Graph().WaitReseal()
	h.View().Search(ctx, "topic", 10)
	return h
}

// The read-only benchmarks share one history; the contended benchmark
// gets its own (its background writer grows the store, which must not
// skew the read-only measurements).
var (
	parallelOnce sync.Once
	parallelHist *History

	contendedOnce sync.Once
	contendedHist *History
)

func parallelWorkload(b *testing.B) *History {
	b.Helper()
	parallelOnce.Do(func() { parallelHist = buildParallelHistory() })
	return parallelHist
}

func contendedWorkload(b *testing.B) *History {
	b.Helper()
	contendedOnce.Do(func() { contendedHist = buildParallelHistory() })
	return contendedHist
}

// BenchmarkParallelSearch measures aggregate contextual-search throughput
// with GOMAXPROCS concurrent readers on a ~60k-node history. This is the
// concurrency headline: the epoch-snapshot read path lets readers run
// lock-free on immutable views, so throughput should scale with cores
// instead of serialising on a global engine mutex.
func BenchmarkParallelSearch(b *testing.B) {
	ctx := context.Background()
	h := parallelWorkload(b)
	terms := []string{"topic", "article", "42", "s3", "17 article"}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.View().Search(ctx, terms[i%len(terms)], 10)
			i++
		}
	})
}

// BenchmarkParallelSearchContended is the same workload with one
// background writer applying an event every millisecond (a far higher
// rate than real browsing), so generation bumps keep forcing snapshot
// refreshes on the read path.
func BenchmarkParallelSearchContended(b *testing.B) {
	ctx := context.Background()
	h := contendedWorkload(b)
	terms := []string{"topic", "article", "42", "s3", "17 article"}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		base := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			h.Apply(&Event{
				Time: base.Add(time.Duration(i) * time.Second),
				Type: TypeVisit, Tab: 9,
				URL:        fmt.Sprintf("http://w.example/bg-%d", i),
				Title:      "background write",
				Transition: TransLink,
			})
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.View().Search(ctx, terms[i%len(terms)], 10)
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}

// BenchmarkSingleSearch is the single-threaded latency guard for the
// same workload: the snapshot refactor must not regress it.
func BenchmarkSingleSearch(b *testing.B) {
	ctx := context.Background()
	h := parallelWorkload(b)
	terms := []string{"topic", "article", "42", "s3", "17 article"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.View().Search(ctx, terms[i%len(terms)], 10)
	}
}

// BenchmarkPerCallOptions is the no-rebuild guard for the v2 API: the
// same View answers queries that alternate expansion depth (and HITS)
// per call. If option changes re-built the engine or re-indexed the
// ~60k-node history, this would be orders of magnitude slower than
// BenchmarkSingleSearch instead of within noise of it.
func BenchmarkPerCallOptions(b *testing.B) {
	h := parallelWorkload(b)
	terms := []string{"topic", "article", "42", "s3", "17 article"}
	variants := [][]Option{
		{WithDepth(2)},
		{WithDepth(4)},
		{WithDepth(3), WithHITS(true)},
	}
	ctx := context.Background()
	v := h.View()
	sn := v.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := v.Search(ctx, terms[i%len(terms)], 10, variants[i%len(variants)]...); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if v.Snapshot() != sn {
		b.Fatal("per-call options rebuilt the snapshot")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

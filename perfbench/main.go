// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation from a single client, checks the outputs against
// truths it derives itself, and prints every metric by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// same workload runs with spans recorded around each call into a layer's
// public function, and the metrics are the per-layer ones reduced from
// those spans and from process counters. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"search_p50_ms", "ms"},
	{"personalize_p50_ms", "ms"},
	{"timectx_p50_ms", "ms"},
	{"lineage_p50_us", "us"},
	{"events_per_s", "1/s"},
	{"post_p50_ms", "ms"},
	{"cold_open_ms", "ms"},
	{"disk_bytes_per_event", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run. A workload that
// never calls a layer reports 0 for its metrics (README: "Per-layer
// metrics").
var perLayer = []metricDef{
	{"textindex.search_under_us", "us"},
	{"textindex.ns_per_posting", "ns"},
	{"textindex.load_frozen_ms", "ms"},
	{"graph.expand_us", "us"},
	{"query.search_ms", "ms"},
	{"query.personalize_ms", "ms"},
	{"query.timectx_ms", "ms"},
	{"query.lineage_us", "us"},
	{"query.search_self_ms", "ms"},
	{"query.view_us", "us"},
	{"pql.eval_ms", "ms"},
	{"provgraph.open_ms", "ms"},
	{"storage.section_open_ms", "ms"},
	{"provgraph.apply_us_per_event", "us"},
	{"provgraph.checkpoint_ms", "ms"},
	{"shardmap.get_hit_us", "us"},
	{"shardmap.get_miss_ms", "ms"},
	{"shardmap.hit_ratio", "ratio"},
	{"shardmap.evictions_per_1k_ops", "count"},
	{"storage.read_bytes_per_event", "B"},
	{"storage.write_bytes_per_event", "B"},
	{"storage.wal_bytes_per_event", "B"},
	{"storage.checkpoint_bytes_per_event", "B"},
	{"provd.cpu_us_per_event", "us"},
	{"provd.syscw_per_post", "count"},
	{"capture.proxy_get_ms", "ms"},
}

// run is the state of one benchmark invocation.
type run struct {
	seed    int64
	seconds time.Duration
	dir     string // working directory of this run, removed at exit
	provd   string // path of the built provd binary
	tr      *tracer

	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	problems  []string // failed output checks
}

// check records a failed output check; a nil err is a pass.
func (r *run) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

var workloads = map[string]func(*run) error{
	"history_queries": runHistory,
	"daemon_ingest":   runDaemon,
	"tenant_mixed":    runTenants,
}

func main() {
	workload := flag.String("workload", "", "history_queries, daemon_ingest or tenant_mixed")
	seed := flag.Int64("seed", 1, "seed of the operation stream over the fixed corpus (README: Inputs and seeds)")
	seconds := flag.Int("seconds", 20, "length of the measured loop in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	work := flag.String("work", ".bench_build/runs", "parent of the per-run working directory")
	provd := flag.String("provd", ".bench_build/provd", "provd binary (daemon_ingest)")
	traces := flag.String("traces", ".bench_build/traces", "where traced runs write their spans")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", *workload)
		os.Exit(2)
	}
	// One client and at most nproc threads of work: the loop is a single
	// goroutine, and the runtime gets no more processors than the box has.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		fatal(err)
	}
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: dir, provd: *provd,
		tr:  newTracer(*trace == 1),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	err = fn(r)
	removeRun(dir)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}

	out := map[string]metric{}
	defs, vals := endToEnd, r.e2e
	if r.tr.on {
		r.tr.reduce(r.layer)
		defs, vals = perLayer, r.layer
		path := filepath.Join(*traces, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := r.tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.tr.on {
			fatal(fmt.Errorf("%s: end-to-end metric %s was not measured", *workload, d.name))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %14.4f %s\n", d.name, v, d.unit)
	}
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Printf("attempted %d failed %d checks %s\n", r.attempted, r.failed, map[bool]string{true: "ok", false: "FAILED"}[len(r.problems) == 0])
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// removeRun deletes a run's directory and syncs its parent, so that the
// file system finishes the deletes' journal commit in this run rather
// than in the set-up of the next.
func removeRun(dir string) {
	os.RemoveAll(dir)
	if f, err := os.Open(filepath.Dir(dir)); err == nil {
		f.Sync()
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// operation share Op; Parent is the ID of the span that caused it (-1 at
// the root of an operation). N is the work the call did, where the layer
// metric is a rate: events applied, postings scored.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	N      float64 `json:"n,omitempty"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// costs one branch per call, so untraced runs carry no tracing work.
type tracer struct {
	on    bool
	t0    time.Time
	op    int
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// newOp starts a new operation; spans begun after it share its ID.
func (t *tracer) newOp() { t.op++ }

// begin opens a span under parent (-1 for an operation's root) and
// returns its ID, or -1 when tracing is off.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span id, recording n units of work done.
func (t *tracer) end(id int, n float64) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].N = n
}

// rename relabels span id once the call reveals what it was (a shard
// lookup is a hit or a miss only after it returns).
func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics maps span names to the per-layer metric of their median
// duration, in the metric's unit (seconds per unit).
var spanMetrics = []struct {
	span, metric string
	unit         float64
	perN         bool // divide each duration by the span's N first
}{
	{"textindex.SearchUnder", "textindex.search_under_us", 1e-6, false},
	{"textindex.SearchUnder", "textindex.ns_per_posting", 1e-9, true},
	{"textindex.LoadFrozen", "textindex.load_frozen_ms", 1e-3, false},
	{"graph.ExpandArena", "graph.expand_us", 1e-6, false},
	{"query.View.Search", "query.search_ms", 1e-3, false},
	{"query.View.Personalize", "query.personalize_ms", 1e-3, false},
	{"query.View.TimeContextualSearch", "query.timectx_ms", 1e-3, false},
	{"query.View.DownloadLineage", "query.lineage_us", 1e-6, false},
	{"query.Engine.View", "query.view_us", 1e-6, false},
	{"pql.Eval", "pql.eval_ms", 1e-3, false},
	{"provgraph.OpenWith", "provgraph.open_ms", 1e-3, false},
	{"storage.OpenSectionFile", "storage.section_open_ms", 1e-3, false},
	{"provgraph.ApplyBatch", "provgraph.apply_us_per_event", 1e-6, true},
	{"provgraph.Checkpoint", "provgraph.checkpoint_ms", 1e-3, false},
	{"shardmap.Get/hit", "shardmap.get_hit_us", 1e-6, false},
	{"shardmap.Get/miss", "shardmap.get_miss_ms", 1e-3, false},
	{"capture.ProxyGet", "capture.proxy_get_ms", 1e-3, false},
}

// reduce folds the spans into per-layer medians, adds the self time of
// View.Search (its duration minus its child spans), and fills every
// per-layer metric the workload left unmeasured with 0.
func (t *tracer) reduce(into map[string]float64) {
	durs := map[string][]float64{}
	perN := map[string][]float64{}
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		durs[s.Name] = append(durs[s.Name], d)
		if s.N > 0 {
			perN[s.Name] = append(perN[s.Name], d/s.N)
		}
		if s.Parent >= 0 {
			child[s.Parent] += d
		}
	}
	for _, m := range spanMetrics {
		xs := durs[m.span]
		if m.perN {
			xs = perN[m.span]
		}
		if len(xs) > 0 {
			into[m.metric] = median(xs) * 1e-9 / m.unit
		}
	}
	var self []float64
	for _, s := range t.spans {
		if s.Name == "query.View.Search" {
			self = append(self, float64(s.End-s.Start)-child[s.ID])
		}
	}
	if len(self) > 0 {
		into["query.search_self_ms"] = median(self) * 1e-6
	}
	for _, d := range perLayer {
		if _, ok := into[d.name]; !ok {
			into[d.name] = 0
		}
	}
}

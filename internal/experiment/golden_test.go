package experiment

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

// goldenSearchK is the result count of every search-like golden query.
const goldenSearchK = 20

// TestPaperQueryGoldens pins what the paper's §2 queries return on a
// fixed-seed history: result sets and rank order, never scores or
// timings. Any rewrite of the query path (kernels, lens, fold) must
// leave these files byte-identical; run with -update to regenerate them
// after a deliberate change in behaviour.
//
// Budgets are unlimited so a slow machine (or -race) cannot truncate a
// query into a different answer. The fixture is large enough that the
// common-term searches expand past 512 nodes and run HITS over
// subgraphs of that size, so the big-frontier code paths are pinned
// too, not only the small ones.
func TestPaperQueryGoldens(t *testing.T) {
	w := buildSmall(t, 6, 41)
	ctx := context.Background()
	v := query.NewEngine(w.Prov, query.Options{Budget: -1}).View()
	tr := w.Truth

	terms := append([]string{tr.RosebudQuery, tr.WineQuery}, v.Engine().Index().Terms(4)...)
	variants := []struct {
		name string
		opts []query.Option
	}{
		{"search", nil},
		{"search hits", []query.Option{query.WithHITS(true)}},
		{"search raw", []query.Option{query.WithRawGraph(true)}},
	}
	var buf bytes.Buffer
	maxExpanded := 0
	for _, vr := range variants {
		for _, q := range terms {
			hits, meta, err := v.Search(ctx, q, goldenSearchK, vr.opts...)
			if err != nil {
				t.Fatalf("%s %q: %v", vr.name, q, err)
			}
			if meta.Truncated {
				t.Fatalf("%s %q: truncated under an unlimited budget", vr.name, q)
			}
			if vr.name == "search hits" {
				// HITS runs over the whole expanded neighborhood.
				maxExpanded = max(maxExpanded, meta.Expanded)
			}
			fmt.Fprintf(&buf, "%s %q\n", vr.name, q)
			for i, h := range hits {
				fmt.Fprintf(&buf, "  %2d %s\n", i+1, h.URL)
			}
		}
	}
	if maxExpanded < 512 {
		t.Fatalf("largest HITS search expanded %d nodes, want >= 512 so large frontiers stay pinned", maxExpanded)
	}

	for _, q := range []string{tr.GardenerQuery, tr.WineQuery, terms[2]} {
		sug, _, err := v.Personalize(ctx, q, 8)
		if err != nil {
			t.Fatalf("personalize %q: %v", q, err)
		}
		fmt.Fprintf(&buf, "personalize %q\n", q)
		for i, s := range sug {
			fmt.Fprintf(&buf, "  %2d %s\n", i+1, s.Term)
		}
	}

	for _, qa := range [][2]string{{tr.WineQuery, tr.WineAnchor}, {terms[2], terms[3]}} {
		hits, _, err := v.TimeContextualSearch(ctx, qa[0], qa[1], goldenSearchK)
		if err != nil {
			t.Fatalf("timectx %q/%q: %v", qa[0], qa[1], err)
		}
		fmt.Fprintf(&buf, "timectx %q anchor %q\n", qa[0], qa[1])
		for i, h := range hits {
			fmt.Fprintf(&buf, "  %2d %s\n", i+1, h.URL)
		}
	}

	for _, id := range w.Prov.Downloads() {
		lin, _, err := v.DownloadLineage(ctx, id)
		if err != nil {
			t.Fatalf("lineage %d: %v", id, err)
		}
		d, _ := w.Prov.NodeByID(id)
		fmt.Fprintf(&buf, "lineage %s found=%v\n", d.Text, lin.Found)
		for _, n := range lin.Path {
			fmt.Fprintf(&buf, "  %s %s\n", n.Kind, nodeLabel(n))
		}
	}

	checkGolden(t, "paper_queries.golden", buf.Bytes())
}

// TestStorageScaleGoldens pins E1's durable footprints and E3's graph
// scale on a fixed-seed history: the byte counts RunE1 reports for both
// stores and the node, edge and event counts RunE3 reads off the
// provenance store. A change to a checkpoint writer, the record dump E1
// measures or event assembly moves these numbers; run with -update to
// regenerate after a deliberate change.
func TestStorageScaleGoldens(t *testing.T) {
	w := buildSmall(t, 6, 37)
	e1, err := RunE1(w)
	if err != nil {
		t.Fatal(err)
	}
	e3 := RunE3(w)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "e1 places_bytes %d\n", e1.PlacesBytes)
	fmt.Fprintf(&buf, "e1 prov_bytes %d\n", e1.ProvBytes)
	fmt.Fprintf(&buf, "e3 days %d\n", e3.Days)
	fmt.Fprintf(&buf, "e3 events %d\n", e3.Events)
	fmt.Fprintf(&buf, "e3 nodes %d\n", e3.Nodes)
	fmt.Fprintf(&buf, "e3 edges %d\n", e3.Edges)
	checkGolden(t, "storage_scale.golden", buf.Bytes())
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run %s -update to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("results differ from %s:\n%s", path, firstDiff(want, got))
	}
}

// nodeLabel names a lineage step: its URL, or for URL-less nodes
// (downloads, search terms) their text.
func nodeLabel(n provgraph.Node) string {
	if n.URL != "" {
		return n.URL
	}
	return n.Text
}

// firstDiff reports the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "no differing line"
}

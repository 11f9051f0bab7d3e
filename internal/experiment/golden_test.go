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
	"browserprov/internal/textindex"
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
//
// The queries run twice against the same golden: on the store that
// ingested the history, and on the store reopened from its checkpoint,
// which reads the lens from the checkpoint's mapped lens section.
func TestPaperQueryGoldens(t *testing.T) {
	checkPaperQueryGoldens(t, provgraph.VersionNodes, "paper_queries.golden")
}

// TestPaperQueryGoldensEdges pins the same queries on an edge-versioned
// build of the same fixture. There a page that has ever redirected is
// spliced out of the lens for good (see provgraph.SnapLens), and these
// results record that rule.
func TestPaperQueryGoldensEdges(t *testing.T) {
	checkPaperQueryGoldens(t, provgraph.VersionEdges, "paper_queries_edges.golden")
}

// checkPaperQueryGoldens builds the golden fixture in mode, checks the
// paper queries against the golden file name, then checkpoints, reopens
// the store mapped and checks them against the same file again.
func checkPaperQueryGoldens(t *testing.T, mode provgraph.VersioningMode, name string) {
	dir := t.TempDir()
	w, err := Build(Config{Seed: 41, Days: 6, Dir: dir, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	checkGolden(t, name, paperQueries(t, w.Prov, w.Truth))

	if err := w.Prov.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := w.Prov.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := provgraph.OpenWith(dir+"/prov", provgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if mi := re.MappedInfo(); mi.MappedBytes == 0 {
		t.Fatalf("reopened store is not served from a mapped checkpoint: %+v", mi)
	}
	checkGolden(t, name, paperQueries(t, re, w.Truth))
}

// paperQueries runs every paper query on store and returns the golden
// text: searches (plain, HITS, raw graph), personalisation, time
// context and every download's lineage.
func paperQueries(t *testing.T, store *provgraph.Store, tr Truth) []byte {
	t.Helper()
	ctx := context.Background()
	v := query.NewEngine(store, query.Options{Budget: -1}).View()

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

	for _, id := range store.Snapshot().Downloads() {
		lin, _, err := v.DownloadLineage(ctx, id)
		if err != nil {
			t.Fatalf("lineage %d: %v", id, err)
		}
		d, _ := store.Snapshot().NodeByID(id)
		fmt.Fprintf(&buf, "lineage %s found=%v\n", d.Text, lin.Found)
		for _, n := range lin.Path {
			fmt.Fprintf(&buf, "  %s %s\n", n.Kind, nodeLabel(n))
		}
	}
	return buf.Bytes()
}

// TestContextualSaturationGolden pins contextual search where its seeds
// fill the expansion cap. Each paper query runs twice on one fixture: at
// the default options, and with MaxNodes set to the query's full seed
// count, the largest cap that seed set saturates. Each run records the
// nodes expanded, the hit count, the hits with no text score (pages
// reached only through provenance) and the top ranked URLs, those pages
// marked "(provenance)"; never a score or a timing.
func TestContextualSaturationGolden(t *testing.T) {
	w := buildSmall(t, 6, 41)
	ctx := context.Background()
	v := query.NewEngine(w.Prov, query.Options{Budget: -1}).View()
	terms := append([]string{w.Truth.RosebudQuery, w.Truth.WineQuery}, v.Engine().Index().Terms(4)...)
	var buf bytes.Buffer
	for _, q := range terms {
		seeds := fullSeedCount(v, q)
		for _, run := range []struct {
			name string
			opts []query.Option
		}{
			{"default", nil},
			{fmt.Sprintf("max_nodes %d", seeds), []query.Option{query.WithMaxNodes(seeds)}},
		} {
			hits, meta, err := v.Search(ctx, q, 0, run.opts...)
			if err != nil {
				t.Fatalf("search %q %s: %v", q, run.name, err)
			}
			if meta.Truncated {
				t.Fatalf("search %q %s: truncated under an unlimited budget", q, run.name)
			}
			provOnly := 0
			for _, h := range hits {
				if h.TextScore == 0 {
					provOnly++
				}
			}
			fmt.Fprintf(&buf, "search %q %s expanded %d hits %d provenance_only %d\n",
				q, run.name, meta.Expanded, len(hits), provOnly)
			for i, h := range hits[:min(len(hits), goldenSearchK)] {
				mark := ""
				if h.TextScore == 0 {
					mark = " (provenance)"
				}
				fmt.Fprintf(&buf, "  %2d %s%s\n", i+1, h.URL, mark)
			}
		}
	}
	checkGolden(t, "contextual_saturation.golden", buf.Bytes())
}

// fullSeedCount is the number of seeds contextual search would load for
// q without a bound: every visit of each page among its top 200 text
// hits, plus one seed per other text hit.
func fullSeedCount(v *query.View, q string) int {
	sn := v.Snapshot()
	seeds := 0
	for _, h := range v.Engine().Index().SearchUnder(q, 200, textindex.DocID(sn.MaxNodeID())) {
		n, ok := sn.NodeByID(provgraph.NodeID(h.Doc))
		switch {
		case !ok:
		case n.Kind == provgraph.KindPage:
			seeds += len(sn.VisitsOfPage(n.ID))
		default:
			seeds++
		}
	}
	return seeds
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

// TestPaperExperimentGoldens pins the non-timing outputs of E4 and E5
// at one fixed small configuration: every E4 field, and per versioning
// mode E5's graph size, checkpointed footprint, DAG verdict and rosebud
// rank, with the lens and HITS ablations' counts and ranks. E5's Bytes
// is SizeOnDisk after a checkpoint, so a change to the journal's
// footprint moves this file. Durations are never written.
func TestPaperExperimentGoldens(t *testing.T) {
	var buf bytes.Buffer
	e4 := RunE4(buildSmall(t, 6, 47), query.Options{Budget: -1})
	fmt.Fprintf(&buf, "e4 rosebud_rank %d baseline %d\n", e4.RosebudRank, e4.RosebudBaselineRank)
	fmt.Fprintf(&buf, "e4 gardener_found %v term %q\n", e4.GardenerTermFound, e4.GardenerTerm)
	fmt.Fprintf(&buf, "e4 wine_rank %d baseline %d\n", e4.WineRank, e4.WineBaselineRank)
	fmt.Fprintf(&buf, "e4 malware_lineage_ok %v descendants %d of %d\n",
		e4.MalwareLineageOK, e4.MalwareDescendants, e4.MalwareDescendantsWant)

	e5, err := RunE5(Config{Seed: 53, Days: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []ModeReport{e5.NodeVersioning, e5.EdgeVersioning} {
		fmt.Fprintf(&buf, "e5 %s nodes %d edges %d bytes %d dag %v rosebud_rank %d\n",
			m.Mode, m.Nodes, m.Edges, m.Bytes, m.DAG, m.RosebudRank)
	}
	fmt.Fprintf(&buf, "e5 lens redirect_hits raw %d lens %d rosebud_rank raw %d lens %d\n",
		e5.Lens.RawRedirectHits, e5.Lens.LensRedirectHits, e5.Lens.RosebudRankRaw, e5.Lens.RosebudRankLens)
	fmt.Fprintf(&buf, "e5 hits rosebud_rank off %d on %d\n", e5.HITS.RosebudRankOff, e5.HITS.RosebudRankOn)
	checkGolden(t, "paper_experiments.golden", buf.Bytes())
}

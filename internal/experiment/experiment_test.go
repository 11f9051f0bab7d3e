package experiment

import (
	"testing"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

// buildSmall builds a reduced workload (shared across subtests for
// speed; experiments at full 79-day scale run in cmd/provbench and the
// benchmarks).
func buildSmall(t *testing.T, days int, seed int64) *Workload {
	t.Helper()
	w, err := Build(Config{Seed: seed, Days: days, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestBuildDualWritesConsistently(t *testing.T) {
	w := buildSmall(t, 4, 31)
	ps := w.Places.Stats()
	gs := w.Prov.Snapshot().Stats()
	// Every Places visit is a provenance visit instance; the provenance
	// store additionally records close/search/etc., so its node count
	// strictly dominates.
	if gs.Visits != ps.Visits {
		t.Fatalf("visit counts differ: prov %d places %d", gs.Visits, ps.Visits)
	}
	// Places creates moz_places rows for download file URLs and search
	// inputs too, so it can exceed the provenance page count — but never
	// trail it.
	if ps.Places < gs.Pages {
		t.Fatalf("places rows %d < provenance pages %d", ps.Places, gs.Pages)
	}
	if gs.Nodes <= ps.Places+ps.Visits {
		t.Fatalf("provenance store should hold extra node kinds: %d vs %d", gs.Nodes, ps.Places+ps.Visits)
	}
}

func TestE1OverheadShape(t *testing.T) {
	w := buildSmall(t, 6, 37)
	r, err := RunE1(w)
	if err != nil {
		t.Fatal(err)
	}
	if r.PlacesBytes == 0 || r.ProvBytes == 0 {
		t.Fatalf("sizes: %+v", r)
	}
	// Shape claim: overhead is a modest constant factor — tens of
	// percent, not multiples; and the provenance store is not smaller.
	if r.OverheadPct < 0 {
		t.Fatalf("provenance store smaller than Places: %+v", r)
	}
	if r.OverheadPct > 150 {
		t.Fatalf("overhead %.1f%% way past the paper's 39.5%% shape", r.OverheadPct)
	}
	// Absolute cost stays in the paper's "less than 5MB" regime even at
	// this scale.
	if r.AbsoluteMB > PaperAbsoluteBudgetMB {
		t.Fatalf("absolute overhead %.2f MB exceeds the 5 MB regime", r.AbsoluteMB)
	}
}

func TestE2AllQueriesInteractive(t *testing.T) {
	w := buildSmall(t, 6, 41)
	r := RunE2(w, query.Options{})
	for name, d := range map[string]LatencyDist{
		"contextual": r.Contextual, "personalize": r.Personalize,
		"timectx": r.TimeContext, "lineage": r.Lineage,
	} {
		if d.N == 0 {
			t.Fatalf("%s: no samples", name)
		}
		if d.Median >= PaperQueryBound {
			t.Fatalf("%s median %v exceeds the 200ms bound at small scale", name, d.Median)
		}
		if d.UnderBoundPct < 50 {
			t.Fatalf("%s: only %.0f%% under bound", name, d.UnderBoundPct)
		}
	}
}

func TestE3Calibration(t *testing.T) {
	w := buildSmall(t, 6, 43)
	r := RunE3(w)
	if r.Days != 6 {
		t.Fatalf("days = %d", r.Days)
	}
	// Paper rate: 25000/79 ≈ 316 nodes/day. Accept a generous band.
	if r.NodesPerDay < 150 || r.NodesPerDay > 900 {
		t.Fatalf("nodes/day = %.0f, want ~316", r.NodesPerDay)
	}
	if r.EventsPerSec < 100 {
		t.Fatalf("ingest too slow: %.0f events/s", r.EventsPerSec)
	}
}

func TestE4QualityOnNoisyHistory(t *testing.T) {
	w := buildSmall(t, 6, 47)
	r := RunE4(w, query.Options{})
	if r.RosebudRank == 0 {
		t.Fatal("rosebud: Citizen Kane not found by contextual search")
	}
	if r.RosebudBaselineRank != 0 {
		t.Fatal("rosebud: baseline unexpectedly found Citizen Kane")
	}
	// The gardener scenario's "rosebud care" pages legitimately compete
	// for this query, so top-10 (vs. not-found for the baseline) is the
	// success criterion here.
	if r.RosebudRank > 10 {
		t.Fatalf("rosebud rank %d, want top-10", r.RosebudRank)
	}
	if !r.GardenerTermFound {
		t.Fatal("gardener: no associated term surfaced")
	}
	if r.WineRank != 1 {
		t.Fatalf("wine rank = %d, want 1", r.WineRank)
	}
	if !r.MalwareLineageOK {
		t.Fatal("malware lineage did not reach the forum")
	}
	if r.MalwareDescendants != r.MalwareDescendantsWant {
		t.Fatalf("descendant scan found %d of %d payloads", r.MalwareDescendants, r.MalwareDescendantsWant)
	}
}

func TestE5Ablation(t *testing.T) {
	r, err := RunE5(Config{Seed: 53, Days: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !r.NodeVersioning.DAG {
		t.Fatal("node versioning broke the DAG invariant")
	}
	if r.EdgeVersioning.DAG {
		t.Fatal("edge versioning unexpectedly acyclic (no browse loops in 4 days?)")
	}
	if r.NodeVersioning.Nodes <= r.EdgeVersioning.Nodes {
		t.Fatalf("node versioning should create more nodes: %d vs %d",
			r.NodeVersioning.Nodes, r.EdgeVersioning.Nodes)
	}
	if r.NodeVersioning.Bytes <= r.EdgeVersioning.Bytes {
		t.Fatalf("node versioning should cost more storage: %d vs %d",
			r.NodeVersioning.Bytes, r.EdgeVersioning.Bytes)
	}
	if r.NodeVersioning.RosebudRank == 0 {
		t.Fatal("node versioning lost the rosebud ground truth")
	}
	// The lens must purge redirect hops without losing the ground truth.
	if r.Lens.LensRedirectHits > r.Lens.RawRedirectHits {
		t.Fatalf("lens increased redirect hits: %+v", r.Lens)
	}
	if r.Lens.RosebudRankLens == 0 {
		t.Fatal("lens lost the rosebud ground truth")
	}
}

func TestBuildDeterminism(t *testing.T) {
	w1 := buildSmall(t, 3, 59)
	w2 := buildSmall(t, 3, 59)
	if w1.Prov.Snapshot().Stats() != w2.Prov.Snapshot().Stats() {
		t.Fatalf("same seed, different workloads: %+v vs %+v", w1.Prov.Snapshot().Stats(), w2.Prov.Snapshot().Stats())
	}
	if w1.Events != w2.Events {
		t.Fatalf("event counts differ: %d vs %d", w1.Events, w2.Events)
	}
}

func TestWorkloadDAG(t *testing.T) {
	w := buildSmall(t, 4, 61)
	if cycle := w.Prov.VerifyDAG(); cycle != nil {
		t.Fatalf("workload cyclic: %v", cycle)
	}
	_ = provgraph.VersionNodes // documents the mode under test
}

// Command provgen generates a synthetic browsing history into a store
// directory: the calibrated 79-day workload (or any size) plus the
// paper's four §2 scenarios, ready for provquery or your own code.
//
// Usage:
//
//	provgen -dir ./history [-seed N] [-days N] [-places] [-v]
package main

import (
	"flag"
	"fmt"
	"log"

	"browserprov/internal/experiment"
)

func main() {
	dir := flag.String("dir", "", "output directory (required)")
	seed := flag.Int64("seed", 1, "workload seed")
	days := flag.Int("days", experiment.PaperDays, "days of simulated browsing")
	verbose := flag.Bool("v", false, "print scenario ground truth")
	flag.Parse()
	if *dir == "" {
		log.Fatal("provgen: -dir is required")
	}

	w, err := experiment.Build(experiment.Config{Seed: *seed, Days: *days, Dir: *dir})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	if err := w.Prov.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if err := w.Places.Checkpoint(); err != nil {
		log.Fatal(err)
	}

	st := w.Prov.Snapshot().Stats()
	fmt.Printf("generated %d days of history in %v\n", w.Run.Days, w.IngestWall)
	fmt.Printf("  events     %d\n", w.Events)
	fmt.Printf("  nodes      %d (pages %d, visits %d, bookmarks %d, downloads %d, terms %d, forms %d)\n",
		st.Nodes, st.Pages, st.Visits, st.Bookmarks, st.Downloads, st.Terms, st.Forms)
	fmt.Printf("  edges      %d\n", st.Edges)
	fmt.Printf("  provenance store %s/prov (%d bytes)\n", *dir, w.Prov.SizeOnDisk())
	fmt.Printf("  places store     %s/places (%d bytes)\n", *dir, w.Places.SizeOnDisk())
	if cycle := w.Prov.VerifyDAG(); cycle != nil {
		log.Fatalf("provgen: DAG invariant violated: %v", cycle)
	}
	fmt.Println("  DAG invariant: ok")

	if *verbose {
		t := w.Truth
		fmt.Println("\nscenario ground truth:")
		fmt.Printf("  rosebud:  search %q, expect %s\n", t.RosebudQuery, t.RosebudExpected)
		fmt.Printf("  gardener: personalize %q, expect one of %v\n", t.GardenerQuery, t.GardenerTerms)
		fmt.Printf("  wine:     %q associated with %q, expect %s\n", t.WineQuery, t.WineAnchor, t.WineTarget)
		fmt.Printf("  malware:  lineage of %s, expect ancestor %s\n", t.MalwareSave, t.MalwareAncestor)
	}
}

// Download-lineage forensics (§2.4 of the paper): a user discovers a
// malicious file and asks "how did I get this?" and "what else came from
// that place?" — against a realistic 79-day history of 25k+ nodes, using
// the full synthetic workload pipeline.
//
//	go run ./examples/downloadlineage
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"browserprov/internal/experiment"
	"browserprov/internal/pql"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

func main() {
	dir, err := os.MkdirTemp("", "browserprov-lineage-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Println("building 79 days of synthetic history (25k+ nodes)...")
	w, err := experiment.Build(experiment.Config{Seed: 7, Days: 79, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	st := w.Prov.Snapshot().Stats()
	fmt.Printf("history: %d nodes, %d edges, %d downloads (built in %v)\n\n",
		st.Nodes, st.Edges, st.Downloads, w.IngestWall)

	eng := query.NewEngine(w.Prov, query.Options{})

	// The whole investigation — lineage, PQL descendant scan, ancestor
	// terms — runs on one snapshot-pinned View: a writer racing this
	// forensic session could not shift the ground under it.
	ctx := context.Background()
	v := eng.View()

	// The infected file (planted by the malware scenario).
	infected := w.Truth.MalwareSave
	fmt.Printf("infected file: %s\n", infected)

	var dlID provgraph.NodeID
	sn := v.Snapshot()
	for _, id := range sn.Downloads() {
		if n, ok := sn.NodeByID(id); ok && n.Text == infected {
			dlID = id
		}
	}
	if dlID == 0 {
		log.Fatal("infected download not found")
	}

	// §2.4: "Find the first ancestor of this file that the user is
	// likely to recognize."
	lin, meta, err := v.DownloadLineage(ctx, dlID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlineage (computed in %v, gen %d):\n", meta.Elapsed.Round(10*time.Microsecond), meta.Generation)
	for i, n := range lin.Path {
		marker := "   "
		if i == len(lin.Path)-1 && lin.Found {
			marker = "-> " // the recognizable ancestor
		}
		fmt.Printf("  %s[%s] %s %s\n", marker, n.Kind, n.URL, n.Text)
	}
	if !lin.Found {
		fmt.Println("  (no recognizable ancestor)")
	}

	// The shady page is now untrusted: scan everything that ever came
	// from it — the paper's "find all descendants of this page that are
	// downloads" query, in PQL.
	untrusted := w.Truth.MalwareUntrusted
	fmt.Printf("\nall downloads descending from %s:\n", untrusted)
	res, _, err := pql.Eval(ctx, v, `descendants(url("`+untrusted+`")) where kind = download`)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range res.Nodes {
		fmt.Printf("  %s (saved %s at %s)\n", n.URL, n.Text, n.Open.Format("2006-01-02 15:04"))
	}

	// And the search terms in the file's ancestry — the user-generated
	// descriptors that led here (§3.3).
	terms, _, err := v.AncestorTerms(ctx, dlID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsearch terms in the file's lineage: %q\n", terms)
}

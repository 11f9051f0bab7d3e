// Command provquery runs the paper's use-case queries — or arbitrary
// PQL — against a provenance store directory (as created by provgen or
// cmd/provd).
//
// Each invocation pins one snapshot View for its whole run, and every
// result line reports the generation it was computed against.
//
// Usage:
//
//	provquery -dir ./history/prov search "rosebud"
//	provquery -dir ./history/prov -depth 5 -hits search "rosebud"
//	provquery -dir ./history/prov textual "rosebud"
//	provquery -dir ./history/prov personalize "rosebud"
//	provquery -dir ./history/prov timectx "wine" "plane tickets"
//	provquery -dir ./history/prov lineage /home/user/downloads/codecpack.exe
//	provquery -dir ./history/prov downloads-from http://freebies13.example/landing
//	provquery -dir ./history/prov pql 'descendants(term("rosebud")) where kind = download'
//	provquery -dir ./history/prov stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"browserprov/internal/export"
	"browserprov/internal/pql"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

func main() {
	dir := flag.String("dir", "", "provenance store directory (required)")
	k := flag.Int("k", 10, "max results")
	budget := flag.Duration("budget", query.DefaultBudget, "query time budget")
	timeout := flag.Duration("timeout", 0, "overall context deadline (0 = none; effective deadline is min(timeout, budget))")
	depth := flag.Int("depth", 0, "expansion depth override (0 = default)")
	maxNodes := flag.Int("max-nodes", 0, "expansion size override (0 = default)")
	useHITS := flag.Bool("hits", false, "blend HITS authority into contextual ranking")
	rawGraph := flag.Bool("raw", false, "traverse the raw graph instead of the redirect-splicing lens")
	flag.Parse()
	if *dir == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: provquery -dir DIR <search|textual|personalize|timectx|lineage|downloads-from|pql|dot|json|stats> [args]")
		os.Exit(2)
	}

	store, err := provgraph.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	eng := query.NewEngine(store, query.Options{})

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Per-call options: the engine stays at its defaults; every tuning
	// flag resolves at query time against the shared snapshot + index.
	opts := []query.Option{query.WithBudget(*budget)}
	if *depth > 0 {
		opts = append(opts, query.WithDepth(*depth))
	}
	if *maxNodes > 0 {
		opts = append(opts, query.WithMaxNodes(*maxNodes))
	}
	if *useHITS {
		opts = append(opts, query.WithHITS(true))
	}
	if *rawGraph {
		opts = append(opts, query.WithRawGraph(true))
	}
	v := eng.View()

	cmd := flag.Arg(0)
	arg := func(i int) string {
		if flag.NArg() <= i {
			log.Fatalf("provquery: %s needs an argument", cmd)
		}
		return flag.Arg(i)
	}
	check := func(err error) {
		if err == nil {
			return
		}
		if errors.Is(err, query.ErrNoSuchDownload) || errors.Is(err, query.ErrBadQuery) {
			log.Fatalf("provquery: %v", err)
		}
		log.Fatal(err)
	}

	switch cmd {
	case "search":
		hits, meta, err := v.Search(ctx, arg(1), *k, opts...)
		check(err)
		printHits(hits, meta)
	case "textual":
		hits, meta, err := v.TextualSearch(ctx, arg(1), *k, opts...)
		check(err)
		printHits(hits, meta)
	case "personalize":
		suggestions, meta, err := v.Personalize(ctx, arg(1), *k, opts...)
		check(err)
		for i, s := range suggestions {
			fmt.Printf("%2d. %-24s %8.3f\n", i+1, s.Term, s.Weight)
		}
		printMeta(meta)
	case "timectx":
		hits, meta, err := v.TimeContextualSearch(ctx, arg(1), arg(2), *k, opts...)
		check(err)
		for i, h := range hits {
			fmt.Printf("%2d. %-56s overlap=%.0fs score=%.3f\n", i+1, clip(h.URL, 56), h.Overlap, h.Score)
		}
		printMeta(meta)
	case "lineage":
		target := arg(1)
		lin, meta, err := v.DownloadLineageByPath(ctx, target, opts...)
		if errors.Is(err, query.ErrNoSuchDownload) {
			// Also accept the download's source URL.
			sn := v.Snapshot()
			for _, id := range sn.Downloads() {
				if n, ok := sn.NodeByID(id); ok && n.URL == target {
					lin, meta, err = v.DownloadLineage(ctx, id, opts...)
					break
				}
			}
		}
		check(err)
		if !lin.Found {
			fmt.Println("no recognizable ancestor; full chain:")
		}
		for i, n := range lin.Path {
			fmt.Printf("%2d. [%-11s] %s %s\n", i, n.Kind, n.URL, n.Text)
		}
		printMeta(meta)
	case "downloads-from":
		dls, meta, err := v.DescendantDownloads(ctx, arg(1), opts...)
		check(err)
		for i, d := range dls {
			fmt.Printf("%2d. %s (from %s at %s)\n", i+1, d.Text, d.URL, d.Open.Format(time.RFC3339))
		}
		printMeta(meta)
	case "pql":
		res, meta, err := pql.Eval(ctx, v, arg(1), opts...)
		check(err)
		if res.IsPath && !res.Found {
			fmt.Println("no match; chain shown:")
		}
		for i, n := range res.Nodes {
			fmt.Printf("%2d. [%-11s] %s %s %s\n", i+1, n.Kind, n.URL, n.Title, n.Text)
		}
		printMeta(meta)
	case "dot":
		// Optional argument: a save path or URL whose neighborhood to
		// export; otherwise the whole graph.
		o := export.Options{}
		sn := store.Snapshot()
		if flag.NArg() > 1 {
			root := flag.Arg(1)
			for _, id := range sn.Downloads() {
				if n, ok := sn.NodeByID(id); ok && (n.Text == root || n.URL == root) {
					o.Roots = append(o.Roots, id)
				}
			}
			if page, ok := sn.PageByURL(root); ok {
				o.Roots = append(o.Roots, sn.VisitsOfPage(page.ID)...)
			}
			if len(o.Roots) == 0 {
				log.Fatalf("provquery: no node matches %q", root)
			}
		}
		if err := export.WriteDOT(os.Stdout, sn, o); err != nil {
			log.Fatal(err)
		}
	case "json":
		if err := export.WriteJSON(os.Stdout, store.Snapshot(), export.Options{IncludeEmbeds: true}); err != nil {
			log.Fatal(err)
		}
	case "stats":
		st := store.Snapshot().Stats()
		fmt.Printf("generation %d\nnodes     %d\n  pages     %d\n  visits    %d\n  bookmarks %d\n  downloads %d\n  terms     %d\n  forms     %d\nedges     %d\nsize      %d bytes\n",
			v.Generation(), st.Nodes, st.Pages, st.Visits, st.Bookmarks, st.Downloads, st.Terms, st.Forms, st.Edges, store.SizeOnDisk())
		if cycle := store.VerifyDAG(); cycle != nil {
			fmt.Printf("DAG invariant: VIOLATED (%v)\n", cycle)
		} else {
			fmt.Println("DAG invariant: ok")
		}
	default:
		log.Fatalf("provquery: unknown command %q", cmd)
	}
}

func printHits(hits []query.PageHit, meta query.Meta) {
	for i, h := range hits {
		fmt.Printf("%2d. %-56s text=%.3f prov=%.3f\n", i+1, clip(h.URL+" "+h.Title, 56), h.TextScore, h.ProvScore)
	}
	printMeta(meta)
}

func printMeta(meta query.Meta) {
	if meta.Elapsed > 0 {
		state := ""
		if meta.Truncated {
			state = " (truncated by budget)"
		}
		if meta.Canceled {
			state = " (canceled)"
		}
		fmt.Printf("-- %v gen=%d%s\n", meta.Elapsed.Round(10*time.Microsecond), meta.Generation, state)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

package query

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"browserprov/internal/provgraph"
)

// The query hot path reads node kinds, page links and open/close times
// through the snapshot's flat accessors and decodes a page's strings
// only for the hits it returns. These tests pin that: hit strings match
// NodeByID on slab- and column-backed epochs, and concurrent queries
// sharing one lens memo agree with a serial run.

// hitStringsMustMatch checks the page, URL and Title of each of n hits,
// as at gives them, against the snapshot's full node.
func hitStringsMustMatch(t *testing.T, label string, sn *provgraph.Snapshot, n int, at func(i int) (provgraph.NodeID, string, string)) {
	t.Helper()
	if n == 0 {
		t.Fatalf("%s: no hits; fixture too small", label)
	}
	for i := 0; i < n; i++ {
		p, url, title := at(i)
		node, ok := sn.NodeByID(p)
		if !ok {
			t.Fatalf("%s: hit page %d not in snapshot", label, p)
		}
		if url != node.URL || title != node.Title {
			t.Fatalf("%s: hit %d (page %d) = %q %q, NodeByID gives %q %q", label, i, p, url, title, node.URL, node.Title)
		}
	}
}

func checkHitStrings(t *testing.T, e *Engine) {
	t.Helper()
	ctx := context.Background()
	v := e.View()
	sn := e.Snapshot()
	for _, q := range []string{"wine", "garden flower", "ticket paris"} {
		for _, k := range []int{10, 0} {
			hits, _, err := v.Search(ctx, q, k, WithBudget(-1))
			if err != nil {
				t.Fatal(err)
			}
			hitStringsMustMatch(t, fmt.Sprintf("Search(%q, k=%d)", q, k), sn, len(hits), func(i int) (provgraph.NodeID, string, string) {
				return hits[i].Page, hits[i].URL, hits[i].Title
			})
		}
	}
	for _, qa := range [][2]string{{"wine", "plane tickets"}, {"garden", "wine"}} {
		hits, _, err := v.TimeContextualSearch(ctx, qa[0], qa[1], 0, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		hitStringsMustMatch(t, fmt.Sprintf("TimeContextualSearch(%q, %q)", qa[0], qa[1]), sn, len(hits), func(i int) (provgraph.NodeID, string, string) {
			return hits[i].Page, hits[i].URL, hits[i].Title
		})
	}
}

func TestHitStringsMatchNodeByID(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 5, 600)
	buildWineHistory(t, f)
	t.Run("slab", func(t *testing.T) {
		checkHitStrings(t, NewEngine(f.s, Options{}))
	})

	if err := f.s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := f.s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := provgraph.OpenWith(f.dir, provgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.MappedInfo().MappedBytes == 0 {
		t.Fatal("reopened checkpoint is not mapped")
	}
	t.Run("columns", func(t *testing.T) {
		checkHitStrings(t, NewEngine(st, Options{}))
	})
}

// TestConcurrentSearchSharedLensMemo runs Search from several goroutines
// on one View, so concurrent queries fill the snapshot's fresh lens memo
// together. Run under -race; every answer must equal the serial one.
func TestConcurrentSearchSharedLensMemo(t *testing.T) {
	f := newFixture(t)
	buildRandomHistory(t, f, 17, 2500)
	e := NewEngine(f.s, Options{})
	ctx := context.Background()
	queries := []string{"wine", "garden flower", "museum", "cheese ticket"}

	type result struct {
		q    string
		hits []PageHit
	}
	v := e.View()
	var wg sync.WaitGroup
	results := make(chan result, 12)
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				q := queries[(w+i)%len(queries)]
				hits, _, err := v.Search(ctx, q, 20, WithBudget(-1))
				if err != nil {
					errs <- err
					return
				}
				results <- result{q, hits}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}

	want := map[string][]PageHit{}
	for _, q := range queries {
		hits, _, err := v.Search(ctx, q, 20, WithBudget(-1))
		if err != nil {
			t.Fatal(err)
		}
		want[q] = hits
	}
	for r := range results {
		if !reflect.DeepEqual(r.hits, want[r.q]) {
			t.Fatalf("q=%q: concurrent results differ from the serial ones", r.q)
		}
	}
}

package browserprov

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentApplyAndQuery hammers the public API from concurrent
// writers and readers; run with -race to validate the locking story.
func TestConcurrentApplyAndQuery(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)

	const (
		writers = 4
		readers = 4
		perG    = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers*perG)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := t0.Add(time.Duration(w) * time.Hour)
			for i := 0; i < perG; i++ {
				ev := &Event{
					Time: base.Add(time.Duration(i) * time.Second),
					Type: TypeVisit, Tab: 100 + w,
					URL:        fmt.Sprintf("http://w%d.example/p%d", w, i),
					Title:      "concurrent page",
					Transition: TransTyped,
				}
				if err := h.Apply(ev); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0:
					h.View().Search(ctx, "rosebud", 5)
				case 1:
					h.View().TextualSearch(ctx, "concurrent", 5)
				case 2:
					h.Stats()
				case 3:
					h.View().TimeContextualSearch(ctx, "concurrent", "rosebud", 3)
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Everything written is present and the invariant held throughout.
	st := h.Stats()
	if st.Visits < writers*perG {
		t.Fatalf("visits = %d, want >= %d", st.Visits, writers*perG)
	}
	if cycle := h.VerifyDAG(); cycle != nil {
		t.Fatalf("cycle after concurrent load: %v", cycle)
	}
}

// TestConcurrentSnapshotReadsNoStaleMisses is the epoch read path's
// freshness contract under -race: one writer applies events while
// reader goroutines run Search/Personalize/DownloadLineage against live
// snapshots. Once Apply has returned for event i (the watermark),
// any subsequent query MUST see it — a re-snapshot plus incremental
// index catch-up happens on the first read after every generation
// bump, so stale-index misses past the watermark are bugs.
func TestConcurrentSnapshotReadsNoStaleMisses(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)

	const (
		writes  = 300
		readers = 4
		reads   = 150
	)
	var applied atomic.Int64
	applied.Store(-1)
	errCh := make(chan error, readers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; i < writes; i++ {
			at := t0.Add(time.Duration(i) * time.Second)
			if err := h.Apply(&Event{
				Time: at, Type: TypeVisit, Tab: 7,
				URL:        fmt.Sprintf("http://wm.example/p%d", i),
				Title:      fmt.Sprintf("sentinelw%d fresh", i),
				Transition: TransTyped,
			}); err != nil {
				errCh <- err
				return
			}
			if i%10 == 0 {
				if err := h.Apply(&Event{
					Time: at.Add(time.Millisecond), Type: TypeDownload, Tab: 7,
					URL:      fmt.Sprintf("http://wm.example/p%d/f.bin", i),
					SavePath: fmt.Sprintf("/dl/wm-%d.bin", i), ContentType: "application/octet-stream",
				}); err != nil {
					errCh <- err
					return
				}
			}
			// Publish the watermark only after Apply returned: readers
			// may now rely on seeing event i.
			applied.Store(int64(i))
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < reads; k++ {
				w := applied.Load()
				if w < 0 {
					continue
				}
				switch k % 3 {
				case 0:
					term := fmt.Sprintf("sentinelw%d", w)
					wantURL := fmt.Sprintf("http://wm.example/p%d", w)
					hits, _, _ := h.View().Search(ctx, term, 5)
					found := false
					for _, hit := range hits {
						if hit.URL == wantURL {
							found = true
							break
						}
					}
					if !found {
						errCh <- fmt.Errorf("reader %d: stale index: %q missing past watermark %d", r, term, w)
						return
					}
				case 1:
					h.View().Personalize(ctx, "rosebud", 3)
				case 2:
					path := fmt.Sprintf("/dl/wm-%d.bin", (w/10)*10)
					if _, _, err := h.View().DownloadLineageByPath(ctx, path); errors.Is(err, ErrNoSuchDownload) {
						errCh <- fmt.Errorf("reader %d: stale save-path index past watermark %d: %v", r, w, err)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if cycle := h.VerifyDAG(); cycle != nil {
		t.Fatalf("cycle after concurrent load: %v", cycle)
	}
}

// TestConcurrentCheckpoint interleaves checkpoints with writes.
func TestConcurrentCheckpoint(t *testing.T) {
	h := openHistory(t)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			ev := &Event{
				Time: t0.Add(time.Duration(i) * time.Second),
				Type: TypeVisit, Tab: 1,
				URL:        fmt.Sprintf("http://cp.example/p%d", i),
				Transition: TransTyped,
			}
			if err := h.Apply(ev); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := h.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if h.Stats().Visits != 300 {
		t.Fatalf("visits = %d", h.Stats().Visits)
	}
}

// TestPublicAPIExpireBefore covers retention through the facade,
// including index rebuild after expiration.
func TestPublicAPIExpireBefore(t *testing.T) {
	ctx := context.Background()
	h := openHistory(t)
	feedRosebud(t, h)
	// An old page outside the download's ancestor closure — the only
	// thing eligible to expire (the rosebud chain is pinned by the
	// poster download's lineage).
	if err := h.Apply(&Event{Time: t0.Add(time.Hour), Type: TypeVisit, Tab: 3,
		URL: "http://ephemeral.example/", Title: "Ephemeral", Transition: TransTyped}); err != nil {
		t.Fatal(err)
	}
	// Prime the engine.
	if hits, _, _ := h.View().Search(ctx, "rosebud", 5); len(hits) == 0 {
		t.Fatal("no hits before expiration")
	}
	// Add recent unrelated history far in the future.
	future := t0.Add(90 * 24 * time.Hour)
	if err := h.Apply(&Event{Time: future, Type: TypeVisit, Tab: 2,
		URL: "http://fresh.example/", Title: "Fresh zebra page", Transition: TransTyped}); err != nil {
		t.Fatal(err)
	}
	removed, err := h.ExpireBefore(t0.Add(30 * 24 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing expired")
	}
	// The download and its lineage survive (pinned).
	if _, _, err := h.View().DownloadLineageByPath(ctx, "/downloads/kane-poster.jpg"); err != nil {
		t.Fatalf("download lineage lost: %v", err)
	}
	// The rebuilt index serves fresh content and drops expired-only
	// pages from textual search.
	if hits, _, _ := h.View().TextualSearch(ctx, "zebra", 5); len(hits) != 1 {
		t.Fatalf("fresh page not searchable after expire: %+v", hits)
	}
}

// TestPublicAPIExportDOT smoke-tests graph export through the facade.
func TestPublicAPIExportDOT(t *testing.T) {
	h := openHistory(t)
	feedRosebud(t, h)
	var buf syncBuffer
	if err := h.WriteDOT(&buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty DOT output")
	}
	buf.Reset()
	if err := h.WriteJSON(&buf, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty JSON output")
	}
}

// syncBuffer is a tiny bytes.Buffer clone avoiding an extra import.
type syncBuffer struct{ b []byte }

func (s *syncBuffer) Write(p []byte) (int, error) { s.b = append(s.b, p...); return len(p), nil }
func (s *syncBuffer) Len() int                    { return len(s.b) }
func (s *syncBuffer) Reset()                      { s.b = s.b[:0] }

// TestViewPinnedUnderConcurrentWriter is the v2 API's consistency
// contract under -race: a writer applies events in a loop while a held
// View runs repeated mixed queries. Every Meta.Generation the View
// reports must be identical, and the result sets must be stable — the
// writer cannot shift the ground under a pinned investigation.
func TestViewPinnedUnderConcurrentWriter(t *testing.T) {
	h := openHistory(t)
	feedRosebud(t, h)

	ctx := context.Background()
	v := h.View()
	pinned := v.Generation()
	if pinned == 0 {
		t.Fatal("pinned generation 0")
	}

	// Baseline result sets to compare against while the writer runs. The
	// unlimited budget keeps slow -race scheduling from truncating the
	// expansion and shrinking a set for timing (not consistency) reasons.
	urlSet := func(hits []PageHit) string {
		urls := make([]string, len(hits))
		for i, h := range hits {
			urls[i] = h.URL
		}
		sort.Strings(urls)
		return strings.Join(urls, "\n")
	}
	baseTextual, _, err := v.TextualSearch(ctx, "rosebud", 0)
	if err != nil {
		t.Fatal(err)
	}
	baseContextual, _, err := v.Search(ctx, "rosebud", 0, WithBudget(-1))
	if err != nil {
		t.Fatal(err)
	}
	baseLineage, _, err := v.DownloadLineageByPath(ctx, "/downloads/kane-poster.jpg")
	if err != nil {
		t.Fatal(err)
	}

	const (
		writes  = 400
		readers = 4
		reads   = 100
	)
	stopWriter := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer close(writerDone)
		for i := 0; i < writes; i++ {
			select {
			case <-stopWriter:
				return
			default:
			}
			if err := h.Apply(&Event{
				Time: t0.Add(time.Duration(i) * time.Second), Type: TypeVisit, Tab: 42,
				URL:        fmt.Sprintf("http://churn.example/p%d", i),
				Title:      "churn rosebud page", // textually matches the pinned query
				Transition: TransTyped,
			}); err != nil {
				writerDone <- err
				return
			}
			// Touch fresh views so the engine keeps re-snapshotting (and
			// re-indexing) underneath the pinned one.
			if i%25 == 0 {
				h.View().Search(ctx, "churn", 3)
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < reads; k++ {
				var meta Meta
				var err error
				switch k % 5 {
				case 0:
					// The writer keeps indexing pages titled "churn
					// rosebud page" into the shared text index; the
					// pinned View's result set must not move.
					var hits []PageHit
					hits, meta, err = v.TextualSearch(ctx, "rosebud", 0)
					if err == nil && urlSet(hits) != urlSet(baseTextual) {
						err = fmt.Errorf("pinned textual search drifted:\n%s\nwant:\n%s", urlSet(hits), urlSet(baseTextual))
					}
				case 1:
					var hits []PageHit
					hits, meta, err = v.Search(ctx, "rosebud", 0, WithBudget(-1))
					if err == nil && urlSet(hits) != urlSet(baseContextual) {
						err = fmt.Errorf("pinned contextual search drifted:\n%s\nwant:\n%s", urlSet(hits), urlSet(baseContextual))
					}
				case 2:
					_, meta, err = v.Personalize(ctx, "rosebud", 3)
				case 3:
					var lin Lineage
					lin, meta, err = v.DownloadLineageByPath(ctx, "/downloads/kane-poster.jpg")
					if err == nil && len(lin.Path) != len(baseLineage.Path) {
						err = fmt.Errorf("pinned lineage drifted: %d nodes, want %d", len(lin.Path), len(baseLineage.Path))
					}
				case 4:
					_, meta, err = QueryOn(ctx, v, `descendants(term("rosebud")) where kind = download`)
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if meta.Generation != pinned {
					errCh <- fmt.Errorf("reader %d: generation %d escaped the pin %d", r, meta.Generation, pinned)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stopWriter)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestClosedHistorySentinel: Views minted after Close fail ErrClosed,
// matchable with errors.Is through every query shape.
func TestClosedHistorySentinel(t *testing.T) {
	h, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	feedRosebud(t, h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	v := h.View()
	if !errors.Is(v.Err(), ErrClosed) {
		t.Fatalf("View().Err() = %v, want ErrClosed", v.Err())
	}
	if _, _, err := v.Search(ctx, "rosebud", 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("Search err = %v, want ErrClosed", err)
	}
	if _, _, err := v.DownloadLineageByPath(ctx, "/downloads/kane-poster.jpg"); !errors.Is(err, ErrClosed) {
		t.Fatalf("lineage err = %v, want ErrClosed", err)
	}
	if _, _, err := QueryOn(ctx, v, `ancestors(url("http://home.example/"))`); !errors.Is(err, ErrClosed) {
		t.Fatalf("PQL err = %v, want ErrClosed", err)
	}
	if vAt := h.ViewAt(1); !errors.Is(vAt.Err(), ErrClosed) {
		t.Fatalf("ViewAt err = %v, want ErrClosed", vAt.Err())
	}
}

// TestApplyBatchWritersRaceReseal is the ingest pipeline's consistency
// contract under -race: concurrent ApplyBatch writers race a goroutine
// that keeps forcing background reseals (epoch flatten + publish),
// while a pinned View runs repeated queries. The View must report one
// constant Meta.Generation and byte-identical result sets throughout —
// neither the group-commit write path nor a reseal publish may move
// the ground under a pinned investigation.
func TestApplyBatchWritersRaceReseal(t *testing.T) {
	h := openHistory(t)
	feedRosebud(t, h)

	ctx := context.Background()
	v := h.View()
	pinned := v.Generation()
	if pinned == 0 {
		t.Fatal("pinned generation 0")
	}
	urlSet := func(hits []PageHit) string {
		urls := make([]string, len(hits))
		for i, h := range hits {
			urls[i] = h.URL
		}
		sort.Strings(urls)
		return strings.Join(urls, "\n")
	}
	baseContextual, _, err := v.Search(ctx, "rosebud", 0, WithBudget(-1))
	if err != nil {
		t.Fatal(err)
	}
	baseTextual, _, err := v.TextualSearch(ctx, "rosebud", 0)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers   = 3
		batches   = 12
		batchSize = 64
		readers   = 3
		reads     = 45
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := t0.Add(time.Duration(w) * 24 * time.Hour)
			for b := 0; b < batches; b++ {
				evs := make([]*Event, batchSize)
				for i := range evs {
					k := b*batchSize + i
					evs[i] = &Event{
						Time: base.Add(time.Duration(k) * time.Second),
						Type: TypeVisit, Tab: 200 + w,
						URL:        fmt.Sprintf("http://batch%d.example/p%d", w, k),
						Title:      "batch rosebud page", // textually matches the pinned query
						Transition: TransLink,
					}
				}
				if err := h.ApplyBatch(evs); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	resealerDone := make(chan struct{})
	go func() { // resealer: keeps epoch publishes churning under the readers
		defer close(resealerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Graph().ForceReseal()
			h.Graph().WaitReseal()
			time.Sleep(time.Millisecond) // let writers/readers breathe on 1 core
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < reads; k++ {
				var meta Meta
				var err error
				switch k % 3 {
				case 0:
					var hits []PageHit
					hits, meta, err = v.Search(ctx, "rosebud", 0, WithBudget(-1))
					if err == nil && urlSet(hits) != urlSet(baseContextual) {
						err = fmt.Errorf("pinned contextual search drifted across reseal")
					}
				case 1:
					var hits []PageHit
					hits, meta, err = v.TextualSearch(ctx, "rosebud", 0)
					if err == nil && urlSet(hits) != urlSet(baseTextual) {
						err = fmt.Errorf("pinned textual search drifted across reseal")
					}
				case 2:
					// Fresh views chase the writers (chained snapshots
					// while a flatten is in flight); only exercised for
					// crashes/races, results legitimately move.
					_, meta, err = h.View().Search(ctx, "batch", 3)
					if err == nil {
						meta.Generation = pinned // not pinned; skip the check below
					}
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if meta.Generation != pinned {
					errCh <- fmt.Errorf("reader %d: generation %d escaped the pin %d", r, meta.Generation, pinned)
					return
				}
			}
		}(r)
	}

	// Stop the resealer only after writers and readers are done, so
	// reseals keep racing them for the whole run.
	wg.Wait()
	close(stop)
	<-resealerDone

	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	h.Graph().WaitReseal()
	if cycle := h.VerifyDAG(); cycle != nil {
		t.Fatalf("cycle after batched concurrent load: %v", cycle)
	}
	st := h.Stats()
	if st.Visits < writers*batches*batchSize {
		t.Fatalf("visits = %d, want >= %d", st.Visits, writers*batches*batchSize)
	}
}

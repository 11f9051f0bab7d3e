package browserprov

import (
	"context"
	"sort"
	"testing"
	"time"
)

// BenchmarkScrubOverhead answers the operational question the online
// scrubber raises: what does a continuously running integrity sweep
// cost the read path? Both rows run the same contextual searches over
// the ~60k-node history; the scrub-on row adds a background goroutine
// doing back-to-back bounded ScrubStep slices (the daemon's 2ms
// budget / 1ms pause cadence, with no idle time between sweeps — a
// worst case the -scrub-every ticker never reaches). The p50/p99
// custom metrics are the headline: the sweep rides MAP_SHARED reads
// and takes no store locks, so the deltas should be noise.
func BenchmarkScrubOverhead(b *testing.B) {
	ctx := context.Background()
	h := parallelWorkload(b)
	// A checkpoint on disk gives the sweep its section-verification
	// half; without one it would only cover the WAL.
	if err := h.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	terms := []string{"topic", "article", "42", "s3", "17 article"}

	run := func(b *testing.B, scrubbing bool) {
		stop := make(chan struct{})
		done := make(chan struct{})
		store := h.Graph()
		before := store.ScrubStatus()
		if scrubbing {
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := store.ScrubStep(2 * time.Millisecond); err != nil {
						b.Errorf("scrub during benchmark: %v", err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
		}
		lat := make([]float64, 0, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			h.View().Search(ctx, terms[i%len(terms)], 10)
			lat = append(lat, float64(time.Since(start).Nanoseconds()))
		}
		b.StopTimer()
		if scrubbing {
			close(stop)
			<-done
			b.ReportMetric(float64(store.ScrubStatus().Sweeps-before.Sweeps), "sweeps")
		}
		sort.Float64s(lat)
		b.ReportMetric(lat[len(lat)/2], "p50_query_ns")
		b.ReportMetric(lat[len(lat)*99/100], "p99_query_ns")
	}
	b.Run("scrub-off", func(b *testing.B) { run(b, false) })
	b.Run("scrub-on", func(b *testing.B) { run(b, true) })
}

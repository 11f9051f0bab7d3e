// Ingest-path benchmarks: the write-side trajectory point. Where
// bench_test.go guards the read path (SingleSearch, E2a–E2d), these
// measure events/sec through the two ingest shapes — per-event Apply
// vs batched group-commit ApplyBatch — at both durability settings,
// read latency under sustained ingest, and the writer's worst-case
// Apply latency across background reseals.
//
// Run with:
//
//	go test -run=NONE -bench 'Ingest|ApplyAcrossReseal' -benchmem
package browserprov

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
)

// ingestReplaySize is the headline replay length: ~60k events yield a
// store of ~100k nodes (page + visit per fresh URL, plus terms and
// downloads).
const ingestReplaySize = 60000

var (
	ingestEvsOnce sync.Once
	ingestEvs     []*event.Event
)

// ingestReplay builds (once) a deterministic ~60k-event browsing
// replay: link/typed visits across tabs with periodic searches and
// downloads — the shape the capture proxy emits.
func ingestReplay() []*event.Event {
	ingestEvsOnce.Do(func() {
		base := time.Date(2009, 2, 23, 9, 0, 0, 0, time.UTC)
		evs := make([]*event.Event, 0, ingestReplaySize)
		for i := 0; len(evs) < ingestReplaySize; i++ {
			at := base.Add(time.Duration(i) * time.Second)
			url := fmt.Sprintf("http://s%d.example/page-%d", i%500, i)
			ev := &event.Event{Time: at, Type: event.TypeVisit, Tab: 1 + i%4,
				URL: url, Title: fmt.Sprintf("Topic %d article %d", i%97, i),
				Transition: event.TransLink}
			if i%31 == 0 {
				ev.Transition = event.TransTyped
			}
			evs = append(evs, ev)
			switch i % 53 {
			case 11:
				evs = append(evs, &event.Event{Time: at.Add(100 * time.Millisecond),
					Type: event.TypeSearch, Tab: 1 + i%4,
					Terms: fmt.Sprintf("topic %d", i%97), URL: "http://search.example/?q=t"})
			case 29:
				evs = append(evs, &event.Event{Time: at.Add(100 * time.Millisecond),
					Type: event.TypeDownload, Tab: 1 + i%4, URL: url + "/f.pdf",
					SavePath: fmt.Sprintf("/dl/f-%d.pdf", i), ContentType: "application/pdf"})
			}
		}
		ingestEvs = evs[:ingestReplaySize]
	})
	return ingestEvs
}

func openIngestStore(b *testing.B, syncEvery int) *provgraph.Store {
	b.Helper()
	dir, err := os.MkdirTemp("", "browserprov-ingest-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	s, err := provgraph.OpenWith(dir, provgraph.Options{SyncEvery: syncEvery})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkIngest is the ingest headline: per-event Apply vs batched
// ApplyBatch over the ~60k-event replay, in the default group-commit
// window (sync every 256 commits) and strict mode (every commit
// durable — where the batch's single fsync is the whole story).
// ns/op is per event; events/sec = 1e9 / ns/op.
func BenchmarkIngest(b *testing.B) {
	evs := ingestReplay()
	bench := func(syncEvery, batch int) func(b *testing.B) {
		return func(b *testing.B) {
			s := openIngestStore(b, syncEvery)
			b.ReportAllocs()
			b.ResetTimer()
			if batch <= 1 {
				for i := 0; i < b.N; i++ {
					if err := s.Apply(evs[i%len(evs)]); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				buf := make([]*event.Event, 0, batch)
				for i := 0; i < b.N; i++ {
					buf = append(buf, evs[i%len(evs)])
					if len(buf) == batch {
						if err := s.ApplyBatch(buf); err != nil {
							b.Fatal(err)
						}
						buf = buf[:0]
					}
				}
				if err := s.ApplyBatch(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.WaitReseal()
		}
	}
	b.Run("apply", bench(0, 1))
	b.Run("batch512", bench(0, 512))
	b.Run("apply-strict", bench(1, 1))
	b.Run("batch512-strict", bench(1, 512))
}

// BenchmarkIngestParallelReaders measures read latency under sustained
// batched ingest: a background writer streams ApplyBatch groups while
// GOMAXPROCS readers run contextual searches. ns/op is the reader-side
// latency; the writer's sustained rate is reported as a metric.
func BenchmarkIngestParallelReaders(b *testing.B) {
	ctx := context.Background()
	h, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	evs := ingestReplay()
	// Preload half the replay so reads have a real graph, then stream
	// the rest (cycling) while the readers run.
	for i := 0; i < len(evs)/2; i += 512 {
		end := i + 512
		if end > len(evs)/2 {
			end = len(evs) / 2
		}
		if err := h.ApplyBatch(evs[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	h.View().Search(ctx, "topic", 10) // prime engine + index

	// The writer streams a 512-event batch every 20 ms (~25k events/sec
	// sustained — orders of magnitude past real browsing, but paced so
	// that on a single core the benchmark measures snapshot/index churn
	// under ingest rather than plain CPU starvation).
	stop := make(chan struct{})
	done := make(chan struct{})
	var written int64
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		at := len(evs) / 2
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			end := at + 512
			if end > len(evs) {
				at, end = 0, 512
			}
			if err := h.ApplyBatch(evs[at:end]); err != nil {
				return
			}
			written += int64(end - at)
			at = end
		}
	}()

	terms := []string{"topic", "article", "42", "s3", "17 article"}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.View().Search(ctx, terms[i%len(terms)], 10)
			i++
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	close(stop)
	<-done
	if secs := elapsed.Seconds(); secs > 0 {
		b.ReportMetric(float64(written)/secs, "ingested_events/sec")
	}
}

// BenchmarkIngestHTTP measures the full network ingest path: keyed
// wire batches through the JSON protocol, the dedup window, one group
// commit and the pre-ack fsync, over real loopback HTTP. ns/op is per
// event; the sustained rate and the p99 per-POST round-trip (the
// latency a retrying client actually observes per batch) are metrics.
func BenchmarkIngestHTTP(b *testing.B) {
	const batchSize = 256
	evs := ingestReplay()
	s := openIngestStore(b, 0)
	srv := ingest.NewServer(func(string) (ingest.Sink, func(), error) {
		return s, func() {}, nil
	}, ingest.ServerOptions{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := ingest.NewClient(hs.URL, ingest.ClientOptions{})

	ctx := context.Background()
	postNS := make([]float64, 0, b.N/batchSize+1)
	batch := &ingest.Batch{SchemaVersion: ingest.SchemaVersion}
	seq := 0
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	flush := func() {
		t0 := time.Now()
		resp, err := c.SendBatch(ctx, batch)
		if err != nil {
			b.Fatal(err)
		}
		postNS = append(postNS, float64(time.Since(t0)))
		if resp.Applied != len(batch.Events) {
			b.Fatalf("applied %d of %d (dedup collision?)", resp.Applied, len(batch.Events))
		}
		batch.Events = batch.Events[:0]
	}
	for i := 0; i < b.N; i++ {
		// Fresh IDs each event: the steady state is all-new, no dedup hits.
		seq++
		batch.Events = append(batch.Events,
			ingest.FromEvent(fmt.Sprintf("bench-%012d", seq), evs[i%len(evs)]))
		if len(batch.Events) == batchSize {
			flush()
		}
	}
	if len(batch.Events) > 0 {
		flush()
	}
	b.StopTimer()
	elapsed := time.Since(start)
	s.WaitReseal()
	if secs := elapsed.Seconds(); secs > 0 {
		b.ReportMetric(float64(b.N)/secs, "ingested_events/sec")
	}
	sort.Float64s(postNS)
	if len(postNS) > 0 {
		b.ReportMetric(postNS[len(postNS)*99/100], "p99_post_ns")
	}
}

// BenchmarkApplyAcrossReseal measures the writer's per-Apply latency
// distribution while background reseals keep being forced: the
// acceptance bound for the off-lock reseal is that no Apply ever pays
// the O(nodes+edges) flatten — the worst writer pause is the O(tail)
// capture. Reported as p99_apply_ns and max_apply_ns.
func BenchmarkApplyAcrossReseal(b *testing.B) {
	s := openIngestStore(b, 0)
	evs := ingestReplay()
	// Prebuild the full replay so reseals are full-size.
	for i := 0; i < len(evs); i += 512 {
		end := i + 512
		if end > len(evs) {
			end = len(evs)
		}
		if err := s.ApplyBatch(evs[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	s.WaitReseal()

	lat := make([]time.Duration, 0, b.N)
	base := time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2048 == 1024 {
			s.ForceReseal() // a fresh O(n) flatten churns in the background
		}
		ev := &event.Event{Time: base.Add(time.Duration(i) * time.Second),
			Type: event.TypeVisit, Tab: 7,
			URL: fmt.Sprintf("http://reseal.example/p%d", i), Title: "across reseal",
			Transition: event.TransLink}
		t0 := time.Now()
		if err := s.Apply(ev); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	s.WaitReseal()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)*99/100]), "p99_apply_ns")
		b.ReportMetric(float64(lat[len(lat)-1]), "max_apply_ns")
	}
}

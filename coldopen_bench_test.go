// Cold-start benchmarks: the restart trajectory point. BenchmarkColdOpen
// measures the full daemon-restart cycle — open the store, answer the
// first query, shut down — over the ~60k-event replay, from the
// raw-column checkpoint: node columns and string blobs served off the
// file, text index warm-started at the persisted watermark, store opens
// already sealed.
//
// Run with:
//
//	go test -run=NONE -bench ColdOpen -benchmem
package browserprov

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"browserprov/internal/event"
)

// seedColdStore builds a store directory holding the full ingest replay
// as one checkpoint and an empty WAL — the steady state a daemon
// restarts from.
func seedColdStore(b *testing.B) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "browserprov-coldopen-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	h, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	evs := ingestReplay()
	for i := 0; i < len(evs); i += 512 {
		end := min(i+512, len(evs))
		if err := h.ApplyBatch(evs[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	// Prime the engine so the checkpoint carries a fully caught-up text
	// index.
	if _, _, err := h.View().TextualSearch(context.Background(), "topic", 1); err != nil {
		b.Fatal(err)
	}
	if err := h.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// withWALTail copies the store in dir and leaves one event in the
// copy's WAL past its checkpoint: the state a daemon restarts from after
// a crash between checkpoints.
func withWALTail(b *testing.B, dir string) string {
	b.Helper()
	tailDir, err := os.MkdirTemp("", "browserprov-coldopen-tail-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(tailDir) })
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tailDir, e.Name()), data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	h, err := Open(tailDir)
	if err != nil {
		b.Fatal(err)
	}
	evs := ingestReplay()
	last := evs[len(evs)-1]
	if err := h.Apply(&Event{Time: last.Time.Add(time.Second), Type: event.TypeVisit, Tab: 1,
		URL: "http://tail.example/after-checkpoint", Title: "Topic 42 after the checkpoint",
		Transition: event.TransTyped}); err != nil {
		b.Fatal(err)
	}
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	return tailDir
}

// BenchmarkColdOpen is the headline: ns/op is one full restart cycle
// (open → first contextual search answered → close), in both residency
// modes — "mmap" serves node columns, string blobs and text postings
// straight off the file mapping (the default), "copy" reads the file
// into one heap buffer (-mmap=false) — so the bytes/op and allocs/op gap
// between them is exactly what the mapping saves. "mmap-tail1" is the
// "mmap" cycle over the same store with one event left in its WAL, so
// the open replays it into the write-side tail.
func BenchmarkColdOpen(b *testing.B) {
	ctx := context.Background()
	bench := func(dir string, sopts StoreOptions) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := OpenWithStore(dir, sopts, Options{})
				if err != nil {
					b.Fatal(err)
				}
				hits, _, err := h.View().Search(ctx, "topic 42", 10)
				if err != nil {
					b.Fatal(err)
				}
				if len(hits) == 0 {
					b.Fatal("cold query returned nothing")
				}
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	dir := seedColdStore(b)
	b.Run("copy", bench(dir, StoreOptions{NoMmap: true}))
	b.Run("mmap", bench(dir, StoreOptions{}))
	b.Run("mmap-tail1", bench(withWALTail(b, dir), StoreOptions{}))
}

package storage

import (
	"fmt"
	"path/filepath"
	"testing"
)

func BenchmarkEncoderRecord(b *testing.B) {
	e := NewEncoder(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.Uvarint(uint64(i))
		e.String("http://site.example/some/page/path")
		e.String("A page title of typical length")
		e.Varint(int64(i) * 1e6)
		e.Uvarint(3)
	}
}

func BenchmarkDecoderRecord(b *testing.B) {
	e := NewEncoder(128)
	e.Uvarint(42)
	e.String("http://site.example/some/page/path")
	e.String("A page title of typical length")
	e.Varint(1234567890123)
	e.Uvarint(3)
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(buf)
		if _, err := d.Uvarint(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.String(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.String(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Varint(); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Uvarint(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppend(b *testing.B) {
	w, err := CreateWAL(filepath.Join(b.TempDir(), "bench.wal"), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 100)
	b.SetBytes(int64(len(payload) + walFrameHeader))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALAppendSyncEvery256(b *testing.B) {
	w, err := CreateWAL(filepath.Join(b.TempDir(), "bench.wal"), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			if err := w.Sync(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkHeapAppend(b *testing.B) {
	h, err := CreateHeapFile(filepath.Join(b.TempDir(), "bench.heap"))
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rec := make([]byte, 80)
	b.SetBytes(int64(len(rec)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJournalLogApply(b *testing.B) {
	dir := b.TempDir()
	s := &kvStore{m: make(map[string]string)}
	j, err := OpenJournal(dir, "bench", JournalCallbacks{Replay: s.apply})
	if err != nil {
		b.Fatal(err)
	}
	s.j = j
	defer j.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.set(fmt.Sprintf("key-%d", i%1000), "value-payload"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALSizes are the logs the WAL read benchmarks scan: a long log
// (a busy store's checkpoint interval) and a short one (a small
// tenant's).
var benchWALSizes = []int{200_000, 20}

// writeBenchWAL writes a log of frames 100-byte entries and returns its
// path.
func writeBenchWAL(b *testing.B, frames int) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 100)
	for i := 0; i < frames; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return path
}

func BenchmarkWALReplay(b *testing.B) {
	for _, frames := range benchWALSizes {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			path := writeBenchWAL(b, frames)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				w, err := OpenWAL(path, 0, func(uint64, []byte) error {
					n++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				w.Close()
				if n != frames {
					b.Fatalf("replayed %d frames, want %d", n, frames)
				}
			}
		})
	}
}

func BenchmarkScrubWALFile(b *testing.B) {
	for _, frames := range benchWALSizes {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			path := writeBenchWAL(b, frames)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := ScrubWALFile(path); err != nil || n != frames {
					b.Fatalf("scrubbed %d frames (%v), want %d", n, err, frames)
				}
			}
		})
	}
}

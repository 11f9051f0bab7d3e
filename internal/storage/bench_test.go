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

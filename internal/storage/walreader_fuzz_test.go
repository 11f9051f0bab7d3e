package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReader writes arbitrary bytes as a WAL file and reads it with a
// WALReader positioned at from until the reader stops. Every call must
// deliver a complete, CRC-valid frame at the reader's next LSN, report
// nothing yet (a torn or clean tail), or fail with ErrWALReaderCorrupt —
// or with ErrWALTrimmed when the first frame it meets is past from — and
// never panic. The seed corpus in testdata/fuzz/FuzzWALReader holds
// small logs written by WAL: clean, torn, rotted and compacted ones.
func FuzzWALReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, from uint64) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenWALReader(path, from)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		// Each delivered frame consumes at least a header, so a reader
		// still delivering past len/header+1 calls is looping.
		for calls := 0; calls <= len(data)/walFrameHeader+1; calls++ {
			next := r.NextLSN()
			frame, lsn, err := r.ReadFrame()
			switch {
			case err != nil:
				if !errors.Is(err, ErrWALReaderCorrupt) && !errors.Is(err, ErrWALTrimmed) {
					t.Fatalf("ReadFrame: unexpected error %v", err)
				}
				return
			case frame == nil:
				return
			}
			if len(frame) < walFrameHeader {
				t.Fatalf("frame of %d bytes, shorter than its header", len(frame))
			}
			if n := binary.LittleEndian.Uint32(frame[4:]); int(n) != len(frame)-walFrameHeader {
				t.Fatalf("frame length field %d, payload %d bytes", n, len(frame)-walFrameHeader)
			}
			if crc := crc32.Checksum(frame[4:], castagnoli); crc != binary.LittleEndian.Uint32(frame) {
				t.Fatalf("lsn %d: delivered frame fails its CRC", lsn)
			}
			if got := binary.LittleEndian.Uint64(frame[8:]); got != lsn || lsn != next || r.NextLSN() != lsn+1 {
				t.Fatalf("delivered lsn %d (header %d) with next %d, now %d", lsn, got, next, r.NextLSN())
			}
		}
		t.Fatalf("reader still delivering after %d bytes' worth of frames", len(data))
	})
}

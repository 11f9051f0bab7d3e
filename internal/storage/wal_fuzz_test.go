package storage

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzWALReplay writes arbitrary bytes as a WAL file and opens it with
// OpenWAL, which must never panic. Replay must apply exactly the frames
// ScrubWALFile counts, whether the scrub passes or reports mid-file rot
// (ErrWALReaderCorrupt), and reopening the file replay truncated must
// apply the same frames again. The seed corpus in
// testdata/fuzz/FuzzWALReplay holds small logs written by WAL: clean,
// torn, rotted and compacted ones.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		frames, err := ScrubWALFile(path)
		if err != nil && !errors.Is(err, ErrWALReaderCorrupt) {
			t.Fatalf("ScrubWALFile: unexpected error %v", err)
		}
		replay := func() (lsns []uint64, payloads []string) {
			w, err := OpenWAL(path, 0, func(lsn uint64, p []byte) error {
				lsns = append(lsns, lsn)
				payloads = append(payloads, string(p))
				return nil
			})
			if err != nil {
				t.Fatalf("OpenWAL: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return lsns, payloads
		}
		lsns, payloads := replay()
		if len(lsns) != frames {
			t.Fatalf("replayed %d frames, scrub counted %d (scrub error %v)", len(lsns), frames, err)
		}
		lsns2, payloads2 := replay()
		if !slices.Equal(lsns, lsns2) || !slices.Equal(payloads, payloads2) {
			t.Fatalf("reopen replayed lsns %v, first open %v", lsns2, lsns)
		}
	})
}

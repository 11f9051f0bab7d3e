package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
)

// openKVR opens the kvStore test harness with previous-generation
// retention on.
func openKVR(t *testing.T, dir string) *kvStore { return openKVJournal(t, dir, true) }

func (s *kvStore) mustSetRange(t *testing.T, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := s.set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkKVRange(t *testing.T, s *kvStore, n int) {
	t.Helper()
	if len(s.m) != n {
		t.Fatalf("recovered %d keys, want %d", len(s.m), n)
	}
	for i := 0; i < n; i++ {
		if got, want := s.m[fmt.Sprintf("k%d", i)], fmt.Sprintf("v%d", i); got != want {
			t.Fatalf("k%d = %q, want %q", i, got, want)
		}
	}
}

// flipByte XORs one byte of the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// corruptSnapshot flips a byte that the verifier is guaranteed to
// check: mid-payload of the first real section (a byte at file-middle
// could land in inert page-alignment padding).
func corruptSnapshot(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(sectionFileHeader)
	for off+sectionFrameHeader <= int64(len(b)) {
		tag := binary.LittleEndian.Uint32(b[off:])
		length := int64(binary.LittleEndian.Uint64(b[off+4:]))
		off += sectionFrameHeader
		if tag != sectionPadTag && length > 0 {
			flipByte(t, path, off+length/2)
			return
		}
		off += length
	}
	t.Fatal("no non-empty section to corrupt")
}

func TestJournalRetainPrevKeepsFallbackFiles(t *testing.T) {
	dir := t.TempDir()
	s := openKVR(t, dir)
	s.mustSetRange(t, 0, 50)
	if err := s.checkpoint(); err != nil { // gen 1
		t.Fatal(err)
	}
	s.mustSetRange(t, 50, 100)
	if err := s.checkpoint(); err != nil { // gen 2; gen 1 retained
		t.Fatal(err)
	}
	s.mustSetRange(t, 100, 120)
	if err := s.checkpoint(); err != nil { // gen 3; gen 2 retained, gen 1 gone
		t.Fatal(err)
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(SnapshotFilePath(dir, "kv", 3)); err != nil {
		t.Fatalf("current snapshot missing: %v", err)
	}
	if _, err := os.Stat(SnapshotFilePath(dir, "kv", 2)); err != nil {
		t.Fatalf("retained previous snapshot missing: %v", err)
	}
	if _, err := os.Stat(SnapshotFilePath(dir, "kv", 1)); !os.IsNotExist(err) {
		t.Fatalf("gen-1 snapshot should be beyond the retention horizon, stat: %v", err)
	}

	s2 := openKVR(t, dir)
	defer s2.j.Close()
	checkKVRange(t, s2, 120)
	if gen, ok := s2.j.PrevGen(); !ok || gen != 2 {
		t.Fatalf("PrevGen = %d, %v; want 2, true", gen, ok)
	}
}

func TestRepairJournalFallsBackToPrevGeneration(t *testing.T) {
	t.Run("sectioned", func(t *testing.T) {
		dir := t.TempDir()
		s := openKVR(t, dir)
		s.mustSetRange(t, 0, 60)
		if err := s.checkpoint(); err != nil { // gen 1
			t.Fatal(err)
		}
		s.mustSetRange(t, 60, 90)
		if err := s.checkpoint(); err != nil { // gen 2, gen 1 retained
			t.Fatal(err)
		}
		s.mustSetRange(t, 90, 100) // live WAL tail past gen 2's fence
		if err := s.j.Close(); err != nil {
			t.Fatal(err)
		}

		// Bit-rot the CURRENT snapshot.
		cur := SnapshotFilePath(dir, "kv", 2)
		corruptSnapshot(t, cur)
		if err := VerifySnapshotFile(cur); err == nil {
			t.Fatal("corrupted snapshot verified clean")
		}

		rep, err := RepairJournal(dir, "kv")
		if err != nil {
			t.Fatalf("RepairJournal: %v", err)
		}
		if rep.SnapshotOK || !rep.FellBack || rep.PrevGen != 1 {
			t.Fatalf("report = %+v; want fell back to gen 1", rep)
		}
		if _, err := os.Stat(cur); !os.IsNotExist(err) {
			t.Fatalf("corrupt snapshot not removed: %v", err)
		}

		// Recovery from gen 1 + retained WAL must reproduce every event,
		// including those logged after gen 2's fence.
		s2 := openKVR(t, dir)
		defer s2.j.Close()
		checkKVRange(t, s2, 100)
	})
}

func TestRepairJournalGenesisFallback(t *testing.T) {
	// One checkpoint under retention: the fallback is "no snapshot, full
	// WAL" (prevGen 0). Corrupting gen 1 must still recover everything.
	dir := t.TempDir()
	s := openKVR(t, dir)
	s.mustSetRange(t, 0, 40)
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.mustSetRange(t, 40, 55)
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}
	cur := SnapshotFilePath(dir, "kv", 1)
	corruptSnapshot(t, cur)

	rep, err := RepairJournal(dir, "kv")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FellBack || rep.PrevGen != 0 {
		t.Fatalf("report = %+v; want genesis fallback", rep)
	}
	s2 := openKVR(t, dir)
	defer s2.j.Close()
	checkKVRange(t, s2, 55)
}

func TestRepairJournalUnrepairableWithoutRetention(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir) // retention off
	for i := 0; i < 30; i++ {
		if err := s.set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}
	cur := SnapshotFilePath(dir, "kv", 1)
	corruptSnapshot(t, cur)
	_, err := RepairJournal(dir, "kv")
	if !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("err = %v; want ErrUnrepairable", err)
	}
}

func TestScrubWALFileCleanAndTorn(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/scrub.wal"
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	frames, err := ScrubWALFile(path)
	if err != nil || frames != 10 {
		t.Fatalf("clean scrub = %d, %v; want 10, nil", frames, err)
	}

	// Chop the last frame mid-payload: torn tail, still clean.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-4); err != nil {
		t.Fatal(err)
	}
	frames, err = ScrubWALFile(path)
	if err != nil || frames != 9 {
		t.Fatalf("torn-tail scrub = %d, %v; want 9, nil", frames, err)
	}

	// Missing file scrubs clean.
	frames, err = ScrubWALFile(dir + "/nope.wal")
	if err != nil || frames != 0 {
		t.Fatalf("missing-file scrub = %d, %v; want 0, nil", frames, err)
	}
}

func TestScrubWALFileMidFileCorruption(t *testing.T) {
	// Rot in frame 1 (not the last frame) must be flagged as corruption,
	// not taken for a torn tail, wherever in the frame it lands: in the
	// payload a CRC-valid successor follows at the claimed boundary; in
	// the length field the claimed boundary is wrong (or past any valid
	// length), but a CRC-valid frame still follows.
	frameLen := int64(walFrameHeader + len("payload-0"))
	for _, tc := range []struct {
		name string
		off  int64 // within frame 1
	}{
		{"payload", walFrameHeader + 2},
		{"length-low-byte", 4},
		{"length-high-byte", 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := t.TempDir() + "/scrub.wal"
			w, err := CreateWAL(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			flipByte(t, path, frameLen+tc.off)
			frames, err := ScrubWALFile(path)
			if !errors.Is(err, ErrWALReaderCorrupt) {
				t.Fatalf("scrub = %d, %v; want ErrWALReaderCorrupt", frames, err)
			}
			if frames != 1 {
				t.Fatalf("frames before corruption = %d, want 1", frames)
			}
		})
	}
}

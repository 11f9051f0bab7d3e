package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// appendFlush logs payload and flushes it to the OS so a WALReader on
// the same path can see it (mirrors what the replication server does).
func appendFlush(t *testing.T, w *WAL, payload []byte) uint64 {
	t.Helper()
	lsn, err := w.Append(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return lsn
}

func TestWALReaderTailsLiveLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	r, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Nothing logged yet: reader reports "no frame", not an error.
	if f, _, err := r.ReadFrame(); err != nil || f != nil {
		t.Fatalf("empty log: frame=%v err=%v, want nil/nil", f, err)
	}

	for i := 0; i < 50; i++ {
		appendFlush(t, w, []byte(fmt.Sprintf("entry-%d", i)))
	}
	for i := 0; i < 50; i++ {
		frame, lsn, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if frame == nil {
			t.Fatalf("frame %d: reader ran dry early", i)
		}
		if lsn != uint64(i) {
			t.Fatalf("frame %d: lsn = %d", i, lsn)
		}
		if want := fmt.Sprintf("entry-%d", i); string(frame[walFrameHeader:]) != want {
			t.Fatalf("frame %d payload = %q, want %q", i, frame[walFrameHeader:], want)
		}
	}
	if f, _, err := r.ReadFrame(); err != nil || f != nil {
		t.Fatalf("caught-up reader: frame=%v err=%v, want nil/nil", f, err)
	}

	// More appends become visible without reopening.
	appendFlush(t, w, []byte("late"))
	frame, lsn, err := r.ReadFrame()
	if err != nil || frame == nil || lsn != 50 {
		t.Fatalf("late frame: lsn=%d err=%v", lsn, err)
	}
}

func TestWALReaderSkipScanCapturesPrevCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 10; i++ {
		appendFlush(t, w, []byte{byte(i)})
	}

	r, err := OpenWALReader(path, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	frame, lsn, err := r.ReadFrame()
	if err != nil || frame == nil || lsn != 7 {
		t.Fatalf("first frame lsn=%d err=%v", lsn, err)
	}
	crc, ok := r.PrevFrameCRC()
	if !ok {
		t.Fatal("skip-scan did not capture CRC of frame 6")
	}
	// The writer's own record of frame 6's CRC must agree: replay the
	// log up to 7 and compare.
	w2, err := OpenWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	r2, err := OpenWALReader(path, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	f6, _, err := r2.ReadFrame()
	if err != nil || f6 == nil {
		t.Fatal(err)
	}
	want := frameCRCOf(f6)
	if crc != want {
		t.Fatalf("PrevFrameCRC = %#x, want %#x", crc, want)
	}
}

func frameCRCOf(frame []byte) uint32 {
	return uint32(frame[0]) | uint32(frame[1])<<8 | uint32(frame[2])<<16 | uint32(frame[3])<<24
}

func TestWALReaderTornTailWaits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendFlush(t, w, []byte("whole"))

	r, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if f, _, err := r.ReadFrame(); err != nil || f == nil {
		t.Fatalf("first frame: %v %v", f, err)
	}

	// Append a frame but tear it: write only half of its bytes by
	// appending to a copy of the file out-of-band.
	full := filepath.Join(t.TempDir(), "full.wal")
	wf, err := CreateWAL(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	appendFlush(t, wf, []byte("torn-entry-payload"))
	wf.Close()
	fb, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.Write(fb[:len(fb)/2]); err != nil {
		t.Fatal(err)
	}
	lf.Close()

	// Torn frame: reader waits (nil/nil), repeatedly.
	for i := 0; i < 3; i++ {
		if f, _, err := r.ReadFrame(); err != nil || f != nil {
			t.Fatalf("torn tail read %d: frame=%v err=%v, want nil/nil", i, f, err)
		}
	}

	// Completing the frame out-of-band makes it readable.
	lf, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lf.Write(fb[len(fb)/2:]); err != nil {
		t.Fatal(err)
	}
	lf.Close()
	frame, lsn, err := r.ReadFrame()
	if err != nil || frame == nil || lsn != 1 {
		t.Fatalf("completed frame: lsn=%d err=%v frame=%v", lsn, err, frame != nil)
	}
	if string(frame[walFrameHeader:]) != "torn-entry-payload" {
		t.Fatalf("payload = %q", frame[walFrameHeader:])
	}
}

func TestWALReaderSurvivesResetKeepTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var offs []int64
	for i := 0; i < 20; i++ {
		offs = append(offs, w.Size())
		appendFlush(t, w, []byte(fmt.Sprintf("entry-%d", i)))
	}

	r, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		if _, _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}

	// Background checkpoint trims the first 15 entries; the log is
	// swapped by rename. The reader is at LSN 10 — still present in the
	// trimmed log — and must follow the swap.
	if err := w.ResetKeepTail(offs[15]); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		frame, lsn, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if frame == nil {
			// The reader may need one dry read to notice the swap.
			frame, lsn, err = r.ReadFrame()
			if err != nil || frame == nil {
				t.Fatalf("frame %d after swap: err=%v frame=%v", i, err, frame != nil)
			}
		}
		if lsn != uint64(i) {
			t.Fatalf("after swap: lsn = %d, want %d", lsn, i)
		}
		if want := fmt.Sprintf("entry-%d", i); string(frame[walFrameHeader:]) != want {
			t.Fatalf("after swap: payload = %q, want %q", frame[walFrameHeader:], want)
		}
	}

	// New appends land in the swapped file and flow through.
	appendFlush(t, w, []byte("post-swap"))
	frame, lsn, err := r.ReadFrame()
	if err != nil || frame == nil || lsn != 20 {
		t.Fatalf("post-swap frame: lsn=%d err=%v", lsn, err)
	}
}

func TestWALReaderTrimmedPastPosition(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var offs []int64
	for i := 0; i < 10; i++ {
		offs = append(offs, w.Size())
		appendFlush(t, w, []byte{byte(i)})
	}
	// A reader opened BEFORE the trim keeps the old inode and drains it
	// before following the swap — no data loss for it. But a reader that
	// arrives after the trim asking for a compacted LSN must be told to
	// bootstrap instead.
	old, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if _, _, err := old.ReadFrame(); err != nil {
		t.Fatal(err)
	}

	// Trim everything below LSN 8.
	if err := w.ResetKeepTail(offs[8]); err != nil {
		t.Fatal(err)
	}

	// The pre-trim reader still sees 1..9 (old inode), then follows the
	// swap for new appends.
	for i := 1; i < 10; i++ {
		_, lsn, err := old.ReadFrame()
		if err != nil || lsn != uint64(i) {
			t.Fatalf("pre-trim reader at %d: lsn=%d err=%v", i, lsn, err)
		}
	}
	appendFlush(t, w, []byte{10})
	var frame []byte
	var lsn uint64
	for i := 0; i < 3 && frame == nil; i++ {
		frame, lsn, err = old.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
	}
	if frame == nil || lsn != 10 {
		t.Fatalf("pre-trim reader after swap: frame=%v lsn=%d", frame != nil, lsn)
	}

	// A fresh reader wanting LSN 1 finds the log starting at 8.
	late, err := OpenWALReader(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	_, _, gotErr := late.ReadFrame()
	if !errors.Is(gotErr, ErrWALTrimmed) {
		t.Fatalf("err = %v, want ErrWALTrimmed", gotErr)
	}
}

func TestWALReaderSurvivesInPlaceReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		appendFlush(t, w, []byte{byte(i)})
	}
	r, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := r.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}

	// Synchronous checkpoint: in-place truncate, LSNs continue at 5.
	if err := w.Reset(5); err != nil {
		t.Fatal(err)
	}
	appendFlush(t, w, []byte{5})
	var frame []byte
	var lsn uint64
	for i := 0; i < 3 && frame == nil; i++ {
		frame, lsn, err = r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
	}
	if frame == nil || lsn != 5 {
		t.Fatalf("after in-place reset: frame=%v lsn=%d", frame != nil, lsn)
	}
}

func TestResetKeepTailSweepsStaleTmp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var offs []int64
	for i := 0; i < 4; i++ {
		offs = append(offs, w.Size())
		appendFlush(t, w, []byte{byte(i)})
	}

	// Simulate debris from a crashed earlier trim: a stale side file.
	if err := os.WriteFile(path+".tmp", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.ResetKeepTail(offs[2]); err != nil {
		t.Fatal(err)
	}
	// The side file was consumed by the rename: nothing left at .tmp.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf(".tmp still present after ResetKeepTail: %v", err)
	}

	// The no-tail branch must sweep too (it bypasses the side file).
	if err := os.WriteFile(path+".tmp", []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.ResetKeepTail(w.Size()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf(".tmp survived no-tail ResetKeepTail: %v", err)
	}
}

func TestWALCrashBetweenRenameStepsRecovers(t *testing.T) {
	// A crash can land after ResetKeepTail wrote the side file but
	// before the rename: the path still holds the full log, and a stale
	// .tmp sits beside it. Recovery must replay the full log (harmless —
	// the journal skips entries below its fence) and sweep the debris.
	dir := t.TempDir()
	path := filepath.Join(dir, "h.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var tailOff int64
	for i := 0; i < 6; i++ {
		if i == 4 {
			tailOff = w.Size()
		}
		if _, err := w.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Build the side file exactly as ResetKeepTail would, then "crash"
	// before the rename.
	fullBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", fullBytes[tailOff:], 0o644); err != nil {
		t.Fatal(err)
	}
	w.Close()

	var seen []byte
	w2, err := OpenWAL(path, 4, func(lsn uint64, p []byte) error {
		seen = append(seen, p[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !bytes.Equal(seen, []byte{4, 5}) {
		t.Fatalf("replay from fence saw %v, want [4 5]", seen)
	}
	if w2.NextLSN() != 6 {
		t.Fatalf("NextLSN = %d, want 6", w2.NextLSN())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("stale .tmp not swept at open: %v", err)
	}
}

func TestWALReaderValidThenTornFrameMidFile(t *testing.T) {
	// A CRC-valid frame followed by a torn frame: the reader must
	// deliver the valid frame and then report "nothing yet" (the torn
	// frame looks like an in-progress append), never corruption.
	path := filepath.Join(t.TempDir(), "g.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendFlush(t, w, []byte(fmt.Sprintf("entry-%d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last frame mid-payload.
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	r, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 2; i++ {
		frame, lsn, err := r.ReadFrame()
		if err != nil || frame == nil || lsn != uint64(i) {
			t.Fatalf("frame %d: lsn=%d err=%v frame=%v", i, lsn, err, frame != nil)
		}
	}
	if frame, _, err := r.ReadFrame(); err != nil || frame != nil {
		t.Fatalf("torn frame: frame=%v err=%v, want nil/nil", frame != nil, err)
	}

	// The offline scrubber agrees: torn tail, 2 clean frames, no error.
	frames, err := ScrubWALFile(path)
	if err != nil || frames != 2 {
		t.Fatalf("scrub = %d, %v; want 2, nil", frames, err)
	}
}

func TestWALReaderCorruptFrameWithValidSuccessor(t *testing.T) {
	// A CRC-bad frame that is NOT the tail (a valid successor follows)
	// is real corruption: the reader reports ErrWALReaderCorrupt rather
	// than skipping or waiting, and the scrubber flags the same frame.
	path := filepath.Join(t.TempDir(), "h.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for i := 0; i < 3; i++ {
		offs = append(offs, w.Size())
		appendFlush(t, w, []byte(fmt.Sprintf("entry-%d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, offs[1]+walFrameHeader+2) // payload byte of frame 1

	r, err := OpenWALReader(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, lsn, err := r.ReadFrame(); err != nil || lsn != 0 {
		t.Fatalf("frame 0: lsn=%d err=%v", lsn, err)
	}
	if _, _, err := r.ReadFrame(); !errors.Is(err, ErrWALReaderCorrupt) {
		t.Fatalf("corrupt frame: err = %v, want ErrWALReaderCorrupt", err)
	}

	if _, err := ScrubWALFile(path); !errors.Is(err, ErrWALReaderCorrupt) {
		t.Fatalf("scrub err = %v, want ErrWALReaderCorrupt", err)
	}
}

func TestWALReaderLengthRotWithValidSuccessor(t *testing.T) {
	// Rot that enlarges a mid-log frame's length field makes its payload
	// look torn at EOF. A CRC-valid frame after it shows it is not the
	// tail: the reader must report ErrWALReaderCorrupt instead of
	// returning "nothing yet" forever. A genuinely torn last frame still
	// reads as nothing, with no error.
	write3 := func(t *testing.T) (string, []int64) {
		path := filepath.Join(t.TempDir(), "l.wal")
		w, err := CreateWAL(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		var offs []int64
		for i := 0; i < 3; i++ {
			offs = append(offs, w.Size())
			appendFlush(t, w, []byte(fmt.Sprintf("entry-%d", i)))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return path, offs
	}
	readFrame0 := func(t *testing.T, path string) *WALReader {
		r, err := OpenWALReader(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		if _, lsn, err := r.ReadFrame(); err != nil || lsn != 0 {
			t.Fatalf("frame 0: lsn=%d err=%v", lsn, err)
		}
		return r
	}

	t.Run("length-low-byte", func(t *testing.T) {
		path, offs := write3(t)
		flipByte(t, path, offs[1]+4) // low byte of frame 1's length
		r := readFrame0(t, path)
		for i := 0; i < 3; i++ {
			if f, _, err := r.ReadFrame(); !errors.Is(err, ErrWALReaderCorrupt) {
				t.Fatalf("call %d: frame=%v err=%v, want ErrWALReaderCorrupt", i, f != nil, err)
			}
		}
	})

	t.Run("torn-last-frame", func(t *testing.T) {
		path, offs := write3(t)
		if err := os.Truncate(path, offs[2]+walFrameHeader+2); err != nil {
			t.Fatal(err)
		}
		r := readFrame0(t, path)
		if _, lsn, err := r.ReadFrame(); err != nil || lsn != 1 {
			t.Fatalf("frame 1: lsn=%d err=%v", lsn, err)
		}
		for i := 0; i < 3; i++ {
			if f, _, err := r.ReadFrame(); f != nil || err != nil {
				t.Fatalf("torn tail, call %d: frame=%v err=%v, want nothing and no error", i, f != nil, err)
			}
		}
	})
}

func TestScrubWALFileDuringResetKeepTail(t *testing.T) {
	// The scrubber opens its own handle by path; a concurrent
	// ResetKeepTail swaps the file by rename, so any single scrub pass
	// sees one frozen, internally-consistent log (old or new inode) and
	// never reports corruption.
	path := filepath.Join(t.TempDir(), "i.wal")
	w, err := CreateWAL(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var offs []int64 // frame-start offsets in the current file
	for i := 0; i < 50; i++ {
		offs = append(offs, w.Size())
		appendFlush(t, w, []byte(fmt.Sprintf("seed-entry-%d", i)))
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := ScrubWALFile(path); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	for i := 0; i < 40; i++ {
		// Trim on a frame boundary, as a real checkpoint fence always does.
		cut := offs[len(offs)/2]
		if err := w.ResetKeepTail(cut); err != nil {
			t.Fatal(err)
		}
		rem := offs[len(offs)/2:]
		rebased := make([]int64, 0, len(rem)+10)
		for _, o := range rem {
			rebased = append(rebased, o-cut)
		}
		offs = rebased
		for k := 0; k < 10; k++ {
			offs = append(offs, w.Size())
			appendFlush(t, w, []byte(fmt.Sprintf("churn-%d-%d", i, k)))
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("scrub during ResetKeepTail churn: %v", err)
	}
}

package provgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

func fillStore(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustApply(t, s, visit(1, fmt.Sprintf("http://site%d.example/", i),
			fmt.Sprintf("Site %d", i), "", event.TransTyped, t0.Add(time.Duration(i)*time.Minute)))
	}
}

// flipSectionByte flips a payload byte of the first non-empty real
// section of the sectioned checkpoint at path (skipping page-alignment
// pad frames, whose bytes are never verified).
func flipSectionByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(16) // section file header
	for off+16 <= int64(len(b)) {
		tag := binary.LittleEndian.Uint32(b[off:])
		length := int64(binary.LittleEndian.Uint64(b[off+4:]))
		off += 16
		if tag != 0 && length > 0 {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var one [1]byte
			if _, err := f.ReadAt(one[:], off+length/2); err != nil {
				t.Fatal(err)
			}
			one[0] ^= 0xFF
			if _, err := f.WriteAt(one[:], off+length/2); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += length
	}
	t.Fatal("no non-empty section found")
}

func TestScrubCleanStoreSweeps(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	fillStore(t, s, 200)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustApply(t, s, visit(1, "http://tail.example/", "Tail", "", event.TransTyped, t0.Add(time.Hour)))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if err := s.Scrub(0, 0); err != nil {
		t.Fatalf("scrub of clean store: %v", err)
	}
	st := s.ScrubStatus()
	if st.Sweeps != 1 || st.Corruptions != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.LastScrub.IsZero() {
		t.Fatal("LastScrub not set")
	}
	if st.FramesVerified == 0 {
		t.Fatal("no WAL frames verified despite a live tail")
	}

	// Tiny budgets still converge: the cursor resumes across steps.
	for i := 0; i < 10000; i++ {
		done, err := s.ScrubStep(time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if st := s.ScrubStatus(); st.Sweeps != 2 {
		t.Fatalf("sweeps = %d, want 2", st.Sweeps)
	}
}

func TestScrubDetectsMappedCheckpointBitRot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	fillStore(t, s, 300)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen so the checkpoint is the live mapped view, then rot it on
	// disk: MAP_SHARED means the mapping observes the flipped byte.
	s2, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	flipSectionByte(t, storage.SnapshotFilePath(dir, "provgraph", 1))

	err = s2.Scrub(0, 0)
	if !errors.Is(err, storage.ErrSectionCorrupt) {
		t.Fatalf("scrub err = %v, want ErrSectionCorrupt", err)
	}
	st := s2.ScrubStatus()
	if st.Corruptions != 1 || st.LastError == "" {
		t.Fatalf("status = %+v", st)
	}
}

// TestScrubVerifiesCheckpointWrittenLive: a store opened from mapped
// gen 1 that checkpoints gen 2 while running must scrub gen 2, not the
// superseded gen-1 mapping it loaded from.
func TestScrubVerifiesCheckpointWrittenLive(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	fillStore(t, s, 300)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustApply(t, s2, visit(1, "http://gen2.example/", "Gen 2", "", event.TransTyped, t0.Add(24*time.Hour)))
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	flipSectionByte(t, storage.SnapshotFilePath(dir, "provgraph", 2))

	if err := s2.Scrub(0, 0); !errors.Is(err, storage.ErrSectionCorrupt) {
		t.Fatalf("scrub err = %v, want ErrSectionCorrupt", err)
	}
	if st := s2.ScrubStatus(); st.Corruptions != 1 {
		t.Fatalf("status = %+v, want one corruption", st)
	}
}

func TestScrubDetectsWALCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	fillStore(t, s, 50)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte early in the WAL (mid-file: plenty of valid frames
	// follow), then reopen-free scrub detection via a fresh store is not
	// possible (open truncates at the bad frame) — so corrupt AFTER
	// reopening, while the log is live.
	s2, err := OpenWith(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	walPath := dir + "/provgraph.wal"
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(walPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	off := fi.Size() / 3 // mid-file, frames follow
	if _, err := f.ReadAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0xFF
	if _, err := f.WriteAt(one[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	err = s2.Scrub(0, 0)
	if !errors.Is(err, storage.ErrWALReaderCorrupt) {
		t.Fatalf("scrub err = %v, want ErrWALReaderCorrupt", err)
	}
}

func TestScrubUnmappedStoreReadsDisk(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	fillStore(t, s, 100)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenWith(dir, Options{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Scrub(0, 0); err != nil {
		t.Fatalf("clean unmapped scrub: %v", err)
	}
	// Heap-backed view: the in-memory copy stays clean, but the sweep
	// re-reads the file and must still catch the rot.
	flipSectionByte(t, storage.SnapshotFilePath(dir, "provgraph", 1))
	if err := s2.Scrub(0, 0); !errors.Is(err, storage.ErrSectionCorrupt) {
		t.Fatalf("scrub err = %v, want ErrSectionCorrupt", err)
	}
}

func TestScrubDuringConcurrentIngestAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	fillStore(t, s, 100)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	scrubErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scrubErr <- nil
				return
			default:
			}
			if _, err := s.ScrubStep(100 * time.Microsecond); err != nil {
				scrubErr <- err
				return
			}
		}
	}()
	for i := 0; i < 6; i++ {
		fillStore(t, s, 40)
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-scrubErr; err != nil {
		t.Fatalf("scrub during ingest/checkpoint churn: %v", err)
	}
}

func TestRepairStoreFallsBackAfterBitRot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(dir, Options{RetainPrevCheckpoint: true, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 120)
	if err := s.Checkpoint(); err != nil { // gen 1
		t.Fatal(err)
	}
	fillStore(t, s, 40)                    // note: duplicate URLs re-visit; fine
	if err := s.Checkpoint(); err != nil { // gen 2, gen 1 retained
		t.Fatal(err)
	}
	mustApply(t, s, visit(2, "http://after.example/", "After", "", event.TransTyped, t0.Add(2*time.Hour)))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wantNodes := 0
	{
		chk, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantNodes = chk.Snapshot().Stats().Nodes
		chk.Close()
	}

	flipSectionByte(t, storage.SnapshotFilePath(dir, "provgraph", 2))
	rep, err := RepairStore(dir)
	if err != nil {
		t.Fatalf("RepairStore: %v", err)
	}
	if !rep.FellBack || rep.PrevGen != 1 {
		t.Fatalf("report = %+v", rep)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer s2.Close()
	if got := s2.Snapshot().Stats().Nodes; got != wantNodes {
		t.Fatalf("nodes after repair = %d, want %d", got, wantNodes)
	}
	if _, ok := s2.Snapshot().PageByURL("http://after.example/"); !ok {
		t.Fatal("post-checkpoint event lost by repair")
	}
	if err := s2.Scrub(0, 0); err != nil {
		t.Fatalf("scrub after repair: %v", err)
	}
}

// TestScrubStepsThroughLiveCheckpointBySection: a store created empty
// that checkpoints while running has no checkpoint it loaded, yet its
// scrub still verifies the checkpoint one section per step under a tiny
// budget, and reports done only once every section and the WAL are
// covered.
func TestScrubStepsThroughLiveCheckpointBySection(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	fillStore(t, s, 200)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sf, err := storage.OpenSectionFile(storage.SnapshotFilePath(dir, "provgraph", 1), false)
	if err != nil {
		t.Fatal(err)
	}
	sections := len(sf.Tags())
	sf.Close()
	if sections < 3 {
		t.Fatalf("fixture: checkpoint has %d sections, want several", sections)
	}

	for step := 1; step <= sections; step++ {
		done, err := s.ScrubStep(time.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			t.Fatalf("step %d of %d sections: sweep reported done", step, sections)
		}
		if got := s.ScrubStatus().SectionsVerified; got != uint64(step) {
			t.Fatalf("after step %d: %d sections verified, want %d", step, got, step)
		}
	}
	done, err := s.ScrubStep(time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.ScrubStatus(); !done || st.Sweeps != 1 || st.SectionsVerified != uint64(sections) {
		t.Fatalf("after the WAL step: done=%v, status %+v; want one sweep over %d sections", done, st, sections)
	}
}

// TestScrubRacingClose: scrub steps racing Close either finish against
// the open store or fail with ErrClosed.
func TestScrubRacingClose(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	fillStore(t, s, 100)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	errs, stepped := make(chan error, 2), make(chan struct{}, 2)
	for g := 0; g < 2; g++ {
		go func() {
			for i := 0; ; i++ {
				_, err := s.ScrubStep(time.Microsecond)
				if i == 0 {
					stepped <- struct{}{}
				}
				if err != nil {
					if errors.Is(err, ErrClosed) {
						err = nil
					}
					errs <- err
					return
				}
			}
		}()
	}
	<-stepped
	<-stepped
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("scrub racing Close: %v", err)
		}
	}
}

package storage

// Offline integrity checking and repair for a journal's durable
// artifacts. The online scrubber (internal/provgraph) re-verifies the
// *live* mapped checkpoint and WAL in background slices; the functions
// here work by path on a journal that is NOT open — they are what the
// quarantine repair worker runs against a store that failed scrub or
// failed to open.

import (
	"errors"
	"fmt"
	"os"
)

// ErrUnrepairable reports that a journal's current snapshot is corrupt
// and no usable fallback exists: there is no retained previous
// generation (JournalCallbacks.RetainPrev was off, or the previous
// snapshot is itself corrupt). The store's data cannot be recovered
// locally; a replication follower should re-bootstrap from its leader.
var ErrUnrepairable = errors.New("storage: journal unrepairable")

// ScrubWALFile re-reads every frame of the WAL at path through its own
// file handle and verifies each CRC. It returns the number of CRC-valid
// frames scanned.
//
// A torn tail (the normal residue of a crash) is NOT an error — open
// truncates it. Mid-file corruption is: a frame that fails its CRC but
// is followed by a CRC-valid frame cannot be a torn tail, so something
// flipped bytes inside the log. That distinction matters because replay silently stops at the
// first bad frame — without this check, mid-file rot would quietly
// amputate acknowledged entries at the next reopen.
//
// A missing file scrubs clean (a store that has never logged).
func ScrubWALFile(path string) (frames int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	sc := walScanner{r: f}
	for {
		lsn, _, n, err := sc.frame()
		if err == nil {
			frames++
			sc.advance(n)
			continue
		}
		if !errors.Is(err, ErrTornWALFrame) && !errors.Is(err, ErrWALReaderCorrupt) {
			return frames, err
		}
		if len(sc.window()) == 0 {
			return frames, nil // clean end
		}
		// CRC-bad or torn at off. A CRC-valid frame after it means
		// mid-file corruption; otherwise this is the torn tail and the
		// scrub is clean.
		st, err := f.Stat()
		if err != nil {
			return frames, err
		}
		next, found, err := sc.successor(n, st.Size())
		if err != nil || !found {
			return frames, err
		}
		// Re-check the failing frame before crying corruption: on a live
		// log the first read can catch a frame mid-flush that the writer
		// completed (and followed) before the successor probe. Appends
		// are sequential, so once a valid successor exists this frame's
		// bytes are final.
		if _, _, n, err := sc.frame(); err == nil {
			frames++
			sc.advance(n)
			continue
		}
		return frames, fmt.Errorf("%w: lsn %d at offset %d (valid successor at %d)",
			ErrWALReaderCorrupt, lsn, sc.off, next)
	}
}

// VerifySnapshotFile fully verifies the sectioned checkpoint at path:
// every section CRC. Returns nil only if every byte checks out; a file
// that is not a current-version sectioned checkpoint fails.
func VerifySnapshotFile(path string) error {
	sf, err := OpenSectionFile(path, false)
	if err != nil {
		return err
	}
	defer sf.Close()
	for _, tag := range sf.Tags() {
		if err := sf.VerifyTag(tag); err != nil {
			return err
		}
	}
	return nil
}

// RepairReport describes what RepairJournal found and did.
type RepairReport struct {
	Gen         uint64 // generation the metadata named on entry
	SnapshotOK  bool   // current snapshot verified clean
	WALFrames   int    // CRC-valid WAL frames scanned
	FellBack    bool   // metadata was rewound to the previous generation
	PrevGen     uint64 // generation fallen back to (when FellBack)
	RemovedPath string // corrupt snapshot file removed (when FellBack)
	SnapshotErr error  // why the current snapshot failed (when !SnapshotOK)
}

// RepairJournal verifies the journal named name in dir and, if its
// current snapshot is corrupt, falls back to the retained previous
// generation: the metadata is atomically rewound to (prevGen,
// prevStartLSN) — whose snapshot is verified first — and the corrupt
// snapshot file is removed, so the next OpenJournal recovers from the
// previous checkpoint plus the retained WAL suffix without losing a
// single logged event. The journal must not be open.
//
// Mid-file WAL corruption is reported as an error (nothing rewrites a
// log), and a snapshot with no clean fallback returns ErrUnrepairable —
// in both cases the caller's remaining move is re-bootstrapping from a
// replication leader.
func RepairJournal(dir, name string) (*RepairReport, error) {
	j := &Journal{dir: dir, name: name, fs: OSFS}
	meta, err := j.readMeta()
	if err != nil {
		return nil, err
	}
	rep := &RepairReport{Gen: meta.gen, SnapshotOK: true}
	if meta.gen > 0 {
		if err := VerifySnapshotFile(j.snapFile(meta.gen)); err != nil {
			rep.SnapshotOK = false
			rep.SnapshotErr = err
		}
	}
	if !rep.SnapshotOK {
		if !meta.havePrev {
			return rep, fmt.Errorf("%w: snapshot gen %d corrupt and no previous generation retained: %v",
				ErrUnrepairable, meta.gen, rep.SnapshotErr)
		}
		if meta.prevGen > 0 {
			if err := VerifySnapshotFile(j.snapFile(meta.prevGen)); err != nil {
				return rep, fmt.Errorf("%w: snapshot gens %d and %d both corrupt: %v",
					ErrUnrepairable, meta.gen, meta.prevGen, err)
			}
		}
		// The previous generation (possibly genesis: prevGen 0, full WAL)
		// is clean. Rewind the metadata first — the corrupt file only goes
		// away once the fallback is durably named, so a crash anywhere here
		// leaves a recoverable journal.
		if err := j.writeMeta(journalMeta{gen: meta.prevGen, startLSN: meta.prevStartLSN}); err != nil {
			return rep, err
		}
		bad := j.snapFile(meta.gen)
		os.Remove(bad)
		rep.FellBack = true
		rep.PrevGen = meta.prevGen
		rep.RemovedPath = bad
	}
	frames, err := ScrubWALFile(j.walFile())
	rep.WALFrames = frames
	if err != nil {
		return rep, err
	}
	return rep, nil
}

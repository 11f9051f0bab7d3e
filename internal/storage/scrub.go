package storage

// Offline integrity checking and repair for a journal's durable
// artifacts. The online scrubber (internal/provgraph) re-verifies the
// *live* mapped checkpoint and WAL in background slices; the functions
// here work by path on a journal that is NOT open — they are what the
// quarantine repair worker runs against a store that failed scrub or
// failed to open.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	var (
		off    int64
		header [walFrameHeader]byte
	)
	for {
		ok, length, err := readWALFrameAt(f, off, header[:], nil)
		if err != nil {
			return frames, err
		}
		if !ok {
			// CRC-bad or torn at off. A CRC-valid frame after it means
			// mid-file corruption; otherwise this is the torn tail and
			// the scrub is clean.
			nextOff, found, err := walSuccessor(f, off, length)
			if err != nil {
				return frames, err
			}
			if !found {
				return frames, nil
			}
			// Re-check the failing frame before crying corruption: on a
			// live log the first read can catch a frame mid-flush that
			// the writer completed (and followed) before the successor
			// probe. Appends are sequential, so once a valid successor
			// exists this frame's bytes are final.
			if okRe, lenRe, errRe := readWALFrameAt(f, off, header[:], nil); errRe == nil && okRe {
				frames++
				off += int64(walFrameHeader) + int64(lenRe)
				continue
			}
			lsn := binary.LittleEndian.Uint64(header[8:])
			return frames, fmt.Errorf("%w: lsn %d at offset %d (valid successor at %d)",
				ErrWALReaderCorrupt, lsn, off, nextOff)
		}
		frames++
		off += int64(walFrameHeader) + int64(length)
	}
}

// walSuccessor looks for a CRC-valid frame after the bad frame at off
// whose header claims length: first at the boundary that length gives,
// then at every later offset, since rot in the length field itself
// moves the boundary. It returns where the frame starts. The scan reads
// the file in windows and CRC-checks only headers whose payload fits in
// the file, so a torn tail costs one read.
func walSuccessor(f *os.File, off int64, length uint32) (int64, bool, error) {
	var h [walFrameHeader]byte
	if length <= maxFieldLen {
		next := off + walFrameHeader + int64(length)
		if ok, _, err := readWALFrameAt(f, next, h[:], nil); err != nil || ok {
			return next, ok, err
		}
	}
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	const window = 64 << 10
	buf := make([]byte, window+walFrameHeader)
	for base := off + 1; base+walFrameHeader <= st.Size(); base += window {
		n, err := f.ReadAt(buf, base)
		if err != nil && err != io.EOF {
			return 0, false, err
		}
		for i := 0; i < window && i+walFrameHeader <= n; i++ {
			p := base + int64(i)
			if p+walFrameHeader+int64(binary.LittleEndian.Uint32(buf[i+4:])) > st.Size() {
				continue
			}
			if ok, _, err := readWALFrameAt(f, p, h[:], nil); err != nil || ok {
				return p, ok, err
			}
		}
	}
	return 0, false, nil
}

// readWALFrameAt reads and CRC-checks the frame at off. ok reports a
// complete, CRC-valid frame; when false, length still carries the
// header's claimed payload length if the header itself was readable
// (maxFieldLen+1 otherwise). payload, when non-nil, receives the frame
// payload on success (resliced from the given buffer).
func readWALFrameAt(f *os.File, off int64, header []byte, payload *[]byte) (ok bool, length uint32, err error) {
	n, rerr := f.ReadAt(header, off)
	if rerr != nil && rerr != io.EOF {
		return false, maxFieldLen + 1, rerr
	}
	if n < walFrameHeader {
		return false, maxFieldLen + 1, nil // clean or torn EOF
	}
	wantCRC := binary.LittleEndian.Uint32(header[0:])
	length = binary.LittleEndian.Uint32(header[4:])
	if length > maxFieldLen {
		return false, length, nil
	}
	buf := make([]byte, length)
	if payload != nil && cap(*payload) >= int(length) {
		buf = (*payload)[:length]
	}
	n, rerr = f.ReadAt(buf, off+walFrameHeader)
	if rerr != nil && rerr != io.EOF {
		return false, length, rerr
	}
	if n < int(length) {
		return false, length, nil // torn payload
	}
	crc := crc32.Checksum(header[4:], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf)
	if crc != wantCRC {
		return false, length, nil
	}
	if payload != nil {
		*payload = buf
	}
	return true, length, nil
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

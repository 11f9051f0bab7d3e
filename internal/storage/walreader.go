package storage

import (
	"errors"
	"fmt"
	"os"
)

// WALReader tails a live WAL file by path, independently of the WAL
// writer: it holds its own file handle and offset, reads complete
// frames as the writer flushes them, and never takes the store's
// locks. The replication stream server uses it to ship WAL frames to
// followers while ingest keeps appending.
//
// The writer only ever does three things to the file, and the reader
// survives all of them:
//
//   - append: new frames show up past the reader's offset; a frame the
//     writer has only partially flushed reads as a torn tail, and the
//     reader simply reports "nothing yet" until the rest arrives —
//     appends are sequential, so bytes present at an offset are final;
//   - ResetKeepTail: the trimmed log is swapped in by rename. The
//     reader's handle keeps the frozen old inode; when it runs dry it
//     compares inodes, reopens the path and rescans — LSNs are
//     preserved across the swap, so the scan finds its place again;
//   - Reset (synchronous checkpoint): the file is truncated in place.
//     The reader detects its offset pointing past the end of a file
//     that shrank and rescans from the start.
//
// In both rescan cases, if the log's first remaining frame is past the
// LSN the reader wants, the entries were compacted into a checkpoint
// and ErrWALTrimmed is returned: the consumer must bootstrap from the
// checkpoint instead.
type WALReader struct {
	path string
	f    *os.File
	sc   walScanner // reads f from the reader's offset
	next uint64     // next LSN to deliver; smaller frames are skipped

	// prevCRC is the frame CRC of the newest skipped frame with
	// lsn == next-1, captured during the initial skip-scan so a resuming
	// stream can verify its follower's last applied record matches.
	prevCRC uint32
	prevOK  bool
}

// ErrWALTrimmed reports that the WAL no longer contains the requested
// LSN: a checkpoint compacted it away. The reader is positioned nowhere
// useful and should be discarded; the consumer must bootstrap from the
// checkpoint.
var ErrWALTrimmed = errors.New("storage: requested wal entries were compacted into a checkpoint")

// ErrWALReaderCorrupt reports a frame whose payload is fully present
// but fails its CRC, or a short frame followed by a CRC-valid one —
// real corruption, not a torn tail.
var ErrWALReaderCorrupt = errors.New("storage: corrupt wal frame under reader")

// OpenWALReader opens a tailing reader positioned to deliver frames
// with lsn >= from. Opening succeeds even if the file does not exist
// yet (a store that has never logged); reads report no frames until it
// appears.
func OpenWALReader(path string, from uint64) (*WALReader, error) {
	r := &WALReader{path: path, next: from}
	if err := r.reopen(); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return r, nil // a missing file appears on the writer's first append
}

// NextLSN returns the LSN of the next frame the reader will deliver.
func (r *WALReader) NextLSN() uint64 { return r.next }

// PrevFrameCRC returns the frame CRC of the entry at NextLSN-1 if the
// reader scanned past it (it did whenever the log still contains that
// entry), for resume verification.
func (r *WALReader) PrevFrameCRC() (uint32, bool) { return r.prevCRC, r.prevOK }

// ReadFrame returns the next complete frame at or past the reader's
// position: the raw frame bytes (header + payload, exactly as logged —
// the CRC ships with it) and its LSN. A nil frame with nil error means
// no complete frame is available yet; the caller polls again later.
// The returned slice is reused by the next ReadFrame call.
func (r *WALReader) ReadFrame() (frame []byte, lsn uint64, err error) {
	for {
		if r.f == nil && r.reopen() != nil {
			return nil, 0, nil
		}
		lsn, _, n, err := r.sc.frame()
		if errors.Is(err, ErrTornWALFrame) && len(r.sc.window()) < walFrameHeader {
			// Torn or clean tail — or a file that shrank (in-place Reset)
			// or was swapped (ResetKeepTail) under us.
			if swapped, err := r.refresh(); err != nil {
				return nil, 0, err
			} else if swapped {
				continue
			}
			return nil, 0, nil
		}
		if errors.Is(err, ErrTornWALFrame) {
			// A short frame is the writer's unfinished tail unless a
			// CRC-valid frame follows it: then rot in the length field
			// moved the boundary past EOF, and waiting would stall forever.
			// Look again before calling it corruption, as ScrubWALFile does.
			fi, err := r.f.Stat()
			if err != nil {
				return nil, 0, err
			}
			if _, found, err := r.sc.successor(n, fi.Size()); err != nil || !found {
				return nil, 0, err // torn tail: the writer will finish it
			}
			if lsn, _, n, err = r.sc.frame(); errors.Is(err, ErrTornWALFrame) {
				return nil, 0, fmt.Errorf("%w: lsn %d at offset %d: frame overruns a valid successor", ErrWALReaderCorrupt, lsn, r.sc.off)
			}
		}
		if errors.Is(err, ErrWALReaderCorrupt) {
			return nil, 0, fmt.Errorf("%w: lsn %d at offset %d", err, lsn, r.sc.off)
		}
		if err != nil {
			return nil, 0, err
		}
		frame = r.sc.window()[:n]
		r.sc.advance(n)
		if lsn < r.next {
			if lsn == r.next-1 {
				r.prevCRC, r.prevOK = WALFrameCRC(frame), true
			}
			continue
		}
		if lsn > r.next {
			// The log starts past what we want: a rescan landed on a file
			// whose prefix was compacted away.
			return nil, 0, fmt.Errorf("%w: want lsn %d, log starts at %d", ErrWALTrimmed, r.next, lsn)
		}
		r.next = lsn + 1
		return frame, lsn, nil
	}
}

// refresh decides whether the file under the reader changed identity
// (rename swap) or shrank (in-place reset) and repositions for a
// rescan. Returns true if the caller should retry reading.
func (r *WALReader) refresh() (bool, error) {
	fi, err := os.Stat(r.path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil // mid-rename blink; retry later
		}
		return false, err
	}
	cur, err := r.f.Stat()
	if err != nil {
		return false, err
	}
	if os.SameFile(fi, cur) {
		if r.sc.off > fi.Size() {
			// In-place truncate (synchronous checkpoint Reset): everything
			// we had read is checkpoint-covered now. Rescan from the top;
			// the skip logic finds our LSN or reports ErrWALTrimmed.
			r.sc.seek(0)
			return true, nil
		}
		return false, nil // genuinely nothing new
	}
	old := r.f
	if err := r.reopen(); err != nil {
		return false, err
	}
	old.Close()
	return true, nil
}

// reopen opens the file at the reader's path, to scan it from the start.
func (r *WALReader) reopen() error {
	f, err := os.Open(r.path)
	if err != nil {
		return err
	}
	r.f, r.sc.r = f, f
	r.sc.seek(0)
	return nil
}

// Close releases the reader's file handle. Close is idempotent.
func (r *WALReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	r.path = "" // reopen must not resurrect the handle
	return err
}

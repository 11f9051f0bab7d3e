package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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
	off  int64
	next uint64 // next LSN to deliver; smaller frames are skipped

	// prevCRC is the frame CRC of the newest skipped frame with
	// lsn == next-1, captured during the initial skip-scan so a resuming
	// stream can verify its follower's last applied record matches.
	prevCRC  uint32
	prevOK   bool
	hdr      [walFrameHeader]byte
	frameBuf []byte
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
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return r, nil // file appears on the writer's first append
		}
		return nil, err
	}
	r.f = f
	return r, nil
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
		if r.f == nil && !r.reopen() {
			return nil, 0, nil
		}
		n, err := r.f.ReadAt(r.hdr[:], r.off)
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		if n < walFrameHeader {
			// Torn or clean tail — or a file that shrank (in-place Reset)
			// or was swapped (ResetKeepTail) under us.
			if swapped, err := r.refresh(); err != nil {
				return nil, 0, err
			} else if swapped {
				continue
			}
			return nil, 0, nil
		}
		wantCRC := binary.LittleEndian.Uint32(r.hdr[0:])
		length := binary.LittleEndian.Uint32(r.hdr[4:])
		lsn := binary.LittleEndian.Uint64(r.hdr[8:])
		if length > maxFieldLen {
			return nil, 0, fmt.Errorf("%w: frame length %d at offset %d", ErrWALReaderCorrupt, length, r.off)
		}
		total := walFrameHeader + int(length)
		if cap(r.frameBuf) < total {
			r.frameBuf = make([]byte, total)
		}
		buf := r.frameBuf[:total]
		copy(buf, r.hdr[:])
		n, err = r.f.ReadAt(buf[walFrameHeader:], r.off+walFrameHeader)
		if err != nil && err != io.EOF {
			return nil, 0, err
		}
		if n < int(length) {
			// A torn payload is the writer's unfinished tail unless a
			// CRC-valid frame follows it: then rot in the length field
			// moved the boundary past EOF, and waiting would stall forever.
			// Re-read before calling it corruption, as ScrubWALFile does.
			if _, found, err := walSuccessor(r.f, r.off, length); err != nil {
				return nil, 0, err
			} else if !found {
				return nil, 0, nil // torn tail: the writer will finish it
			}
			if n, err = r.f.ReadAt(buf[walFrameHeader:], r.off+walFrameHeader); err != nil && err != io.EOF {
				return nil, 0, err
			}
			if n < int(length) {
				return nil, 0, fmt.Errorf("%w: lsn %d at offset %d: frame overruns a valid successor", ErrWALReaderCorrupt, lsn, r.off)
			}
		}
		crc := crc32.Checksum(buf[4:], castagnoli)
		if crc != wantCRC {
			return nil, 0, fmt.Errorf("%w: lsn %d at offset %d", ErrWALReaderCorrupt, lsn, r.off)
		}
		if lsn < r.next {
			if lsn == r.next-1 {
				r.prevCRC, r.prevOK = wantCRC, true
			}
			r.off += int64(total)
			continue
		}
		if lsn > r.next {
			// The log starts past what we want: a rescan landed on a file
			// whose prefix was compacted away.
			return nil, 0, fmt.Errorf("%w: want lsn %d, log starts at %d", ErrWALTrimmed, r.next, lsn)
		}
		r.off += int64(total)
		r.next = lsn + 1
		return buf, lsn, nil
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
		if r.off > fi.Size() {
			// In-place truncate (synchronous checkpoint Reset): everything
			// we had read is checkpoint-covered now. Rescan from the top;
			// the skip logic finds our LSN or reports ErrWALTrimmed.
			r.off = 0
			return true, nil
		}
		return false, nil // genuinely nothing new
	}
	f, err := os.Open(r.path)
	if err != nil {
		return false, err
	}
	r.f.Close()
	r.f = f
	r.off = 0
	return true, nil
}

// reopen attempts to open a file that did not exist when the reader was
// created. Returns true if the file is now open.
func (r *WALReader) reopen() bool {
	f, err := os.Open(r.path)
	if err != nil {
		return false
	}
	r.f = f
	r.off = 0
	return true
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

package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// WAL is a write-ahead log of opaque, checksummed entries. Stores log
// every mutation to the WAL before applying it to their in-memory state.
// A checkpoint (see Journal) writes the state to a sectioned snapshot
// file, then drops the log prefix the snapshot covers with
// ResetKeepTail, keeping the entries logged while it was written. On
// open, the store loads the latest snapshot and replays the log over it.
//
// Entry frame layout:
//
//	[crc32c u32][length u32][lsn u64][payload ...]
//
// The CRC covers length, LSN and payload. Append is the one encoder and
// ParseWALFrame the one decoder. A torn or corrupt tail entry
// terminates replay cleanly: the file is truncated at the last valid
// entry boundary, which is the standard recovery contract for a log.
type WAL struct {
	fs     VFS
	f      File
	path   string
	w      *bufio.Writer
	lsn    uint64 // LSN of the next entry to be appended
	size   int64
	closed bool

	// lastCRC is the frame CRC of the newest entry (appended or seen
	// during replay). Replication uses it as a cheap content fingerprint:
	// a follower resuming a stream presents the CRC of its last applied
	// record and the leader checks it against the same LSN in its own
	// log, so silent divergence (a leader that lost a tail and re-logged
	// different events at the same LSNs) is caught at resume time.
	lastCRC  uint32
	haveLast bool

	// fenceOff is the byte offset of the first replayed entry with
	// lsn >= the open's fromLSN (the snapshot fence) — the oldest entry
	// recovery actually needs. With previous-generation checkpoint
	// retention the journal keeps a deeper prefix below it; the offset
	// tells the next checkpoint where the prefix it may finally drop
	// ends. Maintained only across open (the journal tracks it forward
	// from there).
	fenceOff int64
}

// ErrWALClosed indicates use of a closed WAL.
var ErrWALClosed = errors.New("storage: wal is closed")

// CreateWAL creates (or truncates) a WAL at path, starting at startLSN.
func CreateWAL(path string, startLSN uint64) (*WAL, error) {
	return CreateWALFS(OSFS, path, startLSN)
}

// CreateWALFS is CreateWAL over an injectable filesystem.
func CreateWALFS(fs VFS, path string, startLSN uint64) (*WAL, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create wal %s: %w", path, err)
	}
	return &WAL{fs: fs, f: f, path: path, w: bufio.NewWriterSize(f, 64<<10), lsn: startLSN}, nil
}

// OpenWAL opens the WAL at path (creating it empty at startLSN if absent),
// replays every valid entry with lsn >= fromLSN through apply, truncates
// any corrupt tail, and leaves the log positioned for appending.
//
// Entries with lsn < fromLSN are skipped: they precede the snapshot the
// caller already loaded. The payload passed to apply is valid only
// during the call: apply must copy what it keeps.
func OpenWAL(path string, fromLSN uint64, apply func(lsn uint64, payload []byte) error) (*WAL, error) {
	return OpenWALFS(OSFS, path, fromLSN, apply)
}

// OpenWALFS is OpenWAL over an injectable filesystem (see VFS).
func OpenWALFS(fs VFS, path string, fromLSN uint64, apply func(lsn uint64, payload []byte) error) (*WAL, error) {
	fs.Remove(path + ".tmp") // stale ResetKeepTail side file, if a crash left one
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal %s: %w", path, err)
	}
	wal := &WAL{fs: fs, f: f, path: path, lsn: fromLSN, fenceOff: -1}
	validEnd, lastLSN, seen, err := wal.replay(fromLSN, apply)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: truncate wal %s: %w", path, err)
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	wal.size = validEnd
	if wal.fenceOff < 0 || wal.fenceOff > validEnd {
		wal.fenceOff = validEnd // every surviving entry predates the fence
	}
	if seen && lastLSN >= fromLSN {
		wal.lsn = lastLSN + 1
	}
	wal.w = bufio.NewWriterSize(f, 64<<10)
	return wal, nil
}

// FenceOff returns the byte offset of the first entry replay did not
// skip (== Size when every entry predates the fence). Only meaningful
// right after open; the journal tracks the fence forward from there.
func (w *WAL) FenceOff() int64 { return w.fenceOff }

// replay scans the log from the start, applying entries with
// lsn >= fromLSN. It returns the offset just past the last valid entry,
// the highest LSN seen, and whether any valid entry was seen at all.
func (w *WAL) replay(fromLSN uint64, apply func(lsn uint64, payload []byte) error) (int64, uint64, bool, error) {
	sc := walScanner{r: w.f}
	var (
		lastLSN   uint64
		seen      bool
		fenceSeen bool
	)
	for {
		lsn, payload, n, err := sc.frame()
		if errors.Is(err, ErrTornWALFrame) || errors.Is(err, ErrWALReaderCorrupt) {
			return sc.off, lastLSN, seen, nil // a torn or corrupt entry ends the log
		}
		if err != nil {
			return 0, 0, false, fmt.Errorf("storage: read wal %s: %w", w.path, err)
		}
		if lsn >= fromLSN {
			if !fenceSeen {
				fenceSeen = true
				w.fenceOff = sc.off
			}
			if apply != nil {
				if err := apply(lsn, payload); err != nil {
					return 0, 0, false, fmt.Errorf("storage: wal replay lsn %d: %w", lsn, err)
				}
			}
		}
		if lsn > lastLSN {
			lastLSN = lsn
		}
		seen = true
		w.lastCRC, w.haveLast = WALFrameCRC(sc.window()), true
		sc.advance(n)
	}
}

// Append logs payload and returns its LSN. The entry is buffered; call
// Sync to make it durable.
func (w *WAL) Append(payload []byte) (uint64, error) {
	if w.closed {
		return 0, ErrWALClosed
	}
	var header [walFrameHeader]byte
	binary.LittleEndian.PutUint32(header[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(header[8:], w.lsn)
	crc := crc32.Checksum(header[4:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(header[0:], crc)
	if _, err := w.w.Write(header[:]); err != nil {
		return 0, err
	}
	if _, err := w.w.Write(payload); err != nil {
		return 0, err
	}
	lsn := w.lsn
	w.lsn++
	w.size += int64(walFrameHeader) + int64(len(payload))
	w.lastCRC, w.haveLast = crc, true
	return lsn, nil
}

// NextLSN returns the LSN the next appended entry will receive.
func (w *WAL) NextLSN() uint64 { return w.lsn }

// LastFrameCRC returns the frame CRC of the newest entry, and whether
// the log has seen any entry at all this open.
func (w *WAL) LastFrameCRC() (uint32, bool) { return w.lastCRC, w.haveLast }

// Flush pushes buffered entries to the OS without fsyncing. Durability
// is unchanged (only Sync makes entries crash-safe); flushing makes the
// entries visible to WAL file readers — the replication stream tails
// the file and must not wait out a half-full group-commit window.
func (w *WAL) Flush() error {
	if w.closed {
		return ErrWALClosed
	}
	return w.w.Flush()
}

// Size returns the current log size in bytes, including buffered entries.
func (w *WAL) Size() int64 { return w.size }

// Sync flushes buffered entries and fsyncs the log.
func (w *WAL) Sync() error {
	if w.closed {
		return ErrWALClosed
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Reset discards all entries (after a checkpoint has made them redundant)
// and restarts the log at startLSN.
func (w *WAL) Reset(startLSN uint64) error {
	if w.closed {
		return ErrWALClosed
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.w.Reset(w.f)
	w.lsn = startLSN
	w.size = 0
	return nil
}

// ResetKeepTail discards the log prefix before byte offset fromOff,
// keeping the suffix. Background checkpoints use it: entries logged
// while the snapshot was being written are past the checkpoint's fence
// LSN and must survive the log reset, unlike the full Reset a
// synchronous checkpoint performs. LSNs continue uninterrupted.
//
// The rewrite goes through a side file swapped in by rename, never by
// truncating the live log in place: previously fsynced tail entries
// must survive a crash at ANY point here. If the crash lands before
// the rename is durable, the old full log is still at the path —
// harmless, since replay skips entries below the metadata's fence LSN;
// after it, the trimmed log is. Either way nothing acknowledged is
// lost.
func (w *WAL) ResetKeepTail(fromOff int64) error {
	if w.closed {
		return ErrWALClosed
	}
	// Sweep a stale side file up front, not just at open: a crash (or an
	// error-path bailout) between the tmp write and the rename leaves
	// .tmp debris, and a long-lived daemon that never reopens its WAL
	// would otherwise carry it until the next restart. The no-tail branch
	// below goes through Reset and never touches the side file, so this
	// is also the only in-process cleanup point for it.
	w.fs.Remove(w.path + ".tmp")
	if fromOff <= 0 {
		return nil // nothing before the fence; keep the log as-is
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if fromOff >= w.size {
		// No tail: equivalent to a plain reset at the current LSN. (The
		// in-place truncate is safe here — everything in the log is
		// covered by the just-committed snapshot.)
		return w.Reset(w.lsn)
	}
	tail := make([]byte, w.size-fromOff)
	if _, err := w.f.ReadAt(tail, fromOff); err != nil {
		return err
	}
	tmpPath := w.path + ".tmp"
	tmp, err := w.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(tail); err != nil {
		tmp.Close()
		w.fs.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		w.fs.Remove(tmpPath)
		return err
	}
	if err := w.fs.Rename(tmpPath, w.path); err != nil {
		tmp.Close()
		w.fs.Remove(tmpPath)
		return err
	}
	// The old inode stays open as w.f until the swap of handles below.
	if _, err := tmp.Seek(int64(len(tail)), io.SeekStart); err != nil {
		tmp.Close()
		return err
	}
	w.f.Close()
	w.f = tmp
	w.w.Reset(w.f)
	w.size = int64(len(tail))
	return nil
}

// Close flushes, syncs and closes the log. Close is idempotent.
func (w *WAL) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

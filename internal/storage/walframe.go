package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// walFrameHeader is the size of a WAL frame header (layout on WAL).
const walFrameHeader = 16

var (
	// ErrTornWALFrame reports that a buffer ends before the WAL frame at
	// its front does: an unfinished tail, or a frame cut short in transit.
	ErrTornWALFrame = errors.New("storage: torn wal frame")

	errWALFrameLength = fmt.Errorf("%w: frame length out of bounds", ErrWALReaderCorrupt)
	errWALFrameCRC    = fmt.Errorf("%w: frame crc mismatch", ErrWALReaderCorrupt)
)

// ParseWALFrame decodes the WAL frame at the front of b: its LSN, its
// payload (aliasing b) and its total size n. It is the one place a frame
// header is read, its length bounded and its CRC checked.
//
// ErrTornWALFrame means b ends before the frame does, and n is the size
// the frame needs (a header's, while b holds less). An out-of-bounds
// length (n is 0) or a CRC mismatch wraps ErrWALReaderCorrupt. Whenever
// b holds a header, lsn is the header's. Each caller has its own policy:
//   - replay (OpenWAL) truncates the log at the first torn or bad frame;
//   - ScrubWALFile ends clean at a torn tail, and reports corruption
//     only if a CRC-valid frame follows and a re-read fails again;
//   - WALReader waits on a torn tail, and reports a complete bad frame
//     or a torn one that a CRC-valid frame follows;
//   - the replication follower drops the rest of a response body at a
//     torn or bad frame, and re-requests it.
func ParseWALFrame(b []byte) (lsn uint64, payload []byte, n int, err error) {
	if len(b) < walFrameHeader {
		return 0, nil, walFrameHeader, ErrTornWALFrame
	}
	length := binary.LittleEndian.Uint32(b[4:])
	lsn = binary.LittleEndian.Uint64(b[8:])
	if length > maxFieldLen {
		return lsn, nil, 0, errWALFrameLength
	}
	n = walFrameHeader + int(length)
	if len(b) < n {
		return lsn, nil, n, ErrTornWALFrame
	}
	if crc32.Checksum(b[4:n], castagnoli) != WALFrameCRC(b) {
		return lsn, nil, n, errWALFrameCRC
	}
	return lsn, b[walFrameHeader:n], n, nil
}

// WALFrameCRC returns a frame's CRC field: its content fingerprint.
func WALFrameCRC(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame)
}

// Window sizes of walScanner.
const (
	walScanMinWindow = 4 << 10
	walScanMaxWindow = 256 << 10
	// maxKeptFrameBuf bounds the window a scanner keeps once frames are
	// small again.
	maxKeptFrameBuf = 1 << 20
)

// walScanner reads WAL frames in order from r through one reusable
// window of the file's bytes from off. The window starts at
// walScanMinWindow and doubles, up to walScanMaxWindow, while reads keep
// filling it. A larger frame grows it further, still only after a read
// filled it, so a header that claims more than the file holds costs at
// most about twice the file's size. A window grown past maxKeptFrameBuf
// is dropped once frames are small again. Every refill reads afresh from
// off, so a frame is always parsed from the bytes of one read.
type walScanner struct {
	r      io.ReaderAt
	off    int64 // file offset of buf[lo]: the next frame
	buf    []byte
	lo, hi int  // buf[lo:hi] holds the file's bytes from off
	full   bool // the last read filled buf
}

// frame parses the frame at off, reading on while the window ends
// before it does: ErrTornWALFrame means the file does. It returns
// ParseWALFrame's results or a read error. The payload is valid until
// the scanner next reads.
func (s *walScanner) frame() (lsn uint64, payload []byte, n int, err error) {
	for {
		lsn, payload, n, err = ParseWALFrame(s.buf[s.lo:s.hi])
		if !errors.Is(err, ErrTornWALFrame) {
			return lsn, payload, n, err
		}
		had := s.hi - s.lo
		if err := s.load(n); err != nil {
			return lsn, nil, n, err
		}
		if s.hi <= had {
			return lsn, nil, n, ErrTornWALFrame
		}
	}
}

// load refills the window from off, sized toward need bytes.
func (s *walScanner) load(need int) error {
	size := len(s.buf)
	switch limit := max(walScanMaxWindow, need); {
	case size == 0:
		size = walScanMinWindow
	case size > maxKeptFrameBuf && need <= maxKeptFrameBuf:
		size = limit
	case s.full && size < limit:
		size = min(2*size, limit)
	}
	if size != len(s.buf) {
		s.buf = make([]byte, size)
	}
	k, err := s.r.ReadAt(s.buf, s.off)
	s.lo, s.hi, s.full = 0, k, k == size
	if err == io.EOF {
		err = nil
	}
	return err
}

// window returns the bytes read from off, starting with frame's frame.
func (s *walScanner) window() []byte { return s.buf[s.lo:s.hi] }

// advance moves past the n-byte frame that frame returned.
func (s *walScanner) advance(n int) {
	s.lo += n
	s.off += int64(n)
}

// seek empties the window and moves to off; the next frame reads there.
func (s *walScanner) seek(off int64) {
	s.off, s.lo, s.hi = off, 0, 0
}

// successor reports whether a CRC-valid frame, and where, follows the
// bad frame at off in a file of size bytes: first at the boundary n (the
// bad frame's claimed size, or 0) gives, then at every later offset,
// since rot in the length field moves the boundary. Candidates are
// parsed straight from a window of the file; only one that runs past the
// window but not the file is read through the scanner. The scanner is
// left at off, empty, so its next frame re-reads the bad frame.
func (s *walScanner) successor(n int, size int64) (int64, bool, error) {
	off := s.off
	defer s.seek(off)
	validAt := func(p int64) (bool, error) {
		s.seek(p)
		_, _, _, err := s.frame()
		if errors.Is(err, ErrTornWALFrame) || errors.Is(err, ErrWALReaderCorrupt) {
			return false, nil
		}
		return err == nil, err
	}
	if n > 0 {
		if ok, err := validAt(off + int64(n)); err != nil || ok {
			return off + int64(n), ok, err
		}
	}
	const window = 64 << 10
	buf := make([]byte, max(0, min(window+walFrameHeader, size-off-1)))
	for base := off + 1; base+walFrameHeader <= size; base += window {
		k, err := s.r.ReadAt(buf, base)
		if err != nil && err != io.EOF {
			return 0, false, err
		}
		for i := 0; i < window && i+walFrameHeader <= k; i++ {
			p := base + int64(i)
			_, _, need, err := ParseWALFrame(buf[i:k])
			if err == nil {
				return p, true, nil
			}
			if errors.Is(err, ErrTornWALFrame) && p+int64(need) <= size {
				if ok, err := validAt(p); err != nil || ok {
					return p, ok, err
				}
			}
		}
	}
	return 0, false, nil
}

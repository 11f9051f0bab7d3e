package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
)

// SectionFile is the random-access view of a sectioned checkpoint: the
// frame directory is parsed eagerly (16 bytes per frame), but section
// payloads are only checksummed on first access — an opener that never
// touches a section never pays for verifying it.
//
// When the platform supports it (and the caller asks), the file is
// memory-mapped read-only and payload slices alias the mapping: handing
// a section to a decoder costs no heap and no copy, and untouched
// sections never even fault in. Otherwise the whole file is read into
// one heap buffer and the same slicing applies.
//
// Lifetime: the file view is refcounted. OpenSectionFile hands back the
// owning reference; Retain adds one, Close drops one, and the final
// Close releases the view — unmapping the file when it was mapped.
// Decoded stores alias section bytes (strings, CSR arrays, posting
// lists), so every alias is valid exactly as long as some reference is
// held; long-lived readers (a loaded store) keep their reference until
// their own Close. This is what makes a multi-tenant deployment viable:
// closing an evicted tenant's store actually returns its checkpoint's
// address space instead of leaking one mapping per open, forever.
// The file descriptor is closed before OpenSectionFile returns (a
// mapping keeps the inode alive on its own), so a superseded checkpoint
// file that gets deleted underneath a live mapping keeps working.
type SectionFile struct {
	path   string
	data   []byte
	mapped bool
	secs   map[uint32]*sectionFrame
	refs   atomic.Int64
}

type sectionFrame struct {
	// hdr aliases the frame's 12-byte tag+length prefix in the file view.
	// Verification reads it from the view each time, so post-open header
	// rot in a mapped file is caught by the scrub like payload rot.
	hdr      []byte
	payload  []byte
	crc      uint32
	verified atomic.Bool
}

// verifyCRC re-checksums the frame against its recorded CRC.
func (s *sectionFrame) verifyCRC() bool {
	return sectionFrameCRC(s.hdr, s.payload) == s.crc
}

// OpenSectionFile opens the sectioned checkpoint at path and parses its
// frame directory. With wantMap set it tries to mmap the file,
// falling back to a heap read when the platform can't map.
func OpenSectionFile(path string, wantMap bool) (*SectionFile, error) {
	var data []byte
	mapped := false
	if wantMap {
		if m, err := mmapFile(path); err == nil {
			data, mapped = m, true
		}
	}
	if data == nil {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		data = b
	}
	f := &SectionFile{path: path, data: data, mapped: mapped}
	f.refs.Store(1)
	if err := f.parse(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Retain adds a reference to the file view and returns f for chaining.
// Every Retain must be balanced by a Close; the view (and any mapping)
// is released when the last reference closes.
func (f *SectionFile) Retain() *SectionFile {
	f.refs.Add(1)
	return f
}

// Close drops one reference to the file view. The final Close releases
// the backing bytes — munmapping them when the file was mapped — after
// which every alias handed out by Section is dangling. Closing an
// already fully-closed file is a no-op, so owners can Close defensively.
func (f *SectionFile) Close() error {
	for {
		n := f.refs.Load()
		if n <= 0 {
			return nil
		}
		if !f.refs.CompareAndSwap(n, n-1) {
			continue
		}
		if n > 1 {
			return nil
		}
		data := f.data
		f.data = nil
		f.secs = nil
		if f.mapped {
			return munmapFile(data)
		}
		return nil
	}
}

func (f *SectionFile) parse() error {
	data, path := f.data, f.path
	if len(data) < sectionFileHeader ||
		binary.LittleEndian.Uint32(data[0:]) != sectionMagic {
		return fmt.Errorf("%w: %w: %s", ErrBadVersion, ErrNotSectioned, path)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != sectionVersion {
		return fmt.Errorf("%w: %s has version %d, want %d", ErrBadVersion, path, v, sectionVersion)
	}
	f.secs = make(map[uint32]*sectionFrame)
	off := int64(sectionFileHeader)
	for off < int64(len(data)) {
		if off+sectionFrameHeader > int64(len(data)) {
			return fmt.Errorf("%w: %s: truncated frame at %d", ErrSectionCorrupt, path, off)
		}
		hdr := data[off : off+12 : off+12]
		tag := binary.LittleEndian.Uint32(hdr)
		length := binary.LittleEndian.Uint64(hdr[4:])
		crc := binary.LittleEndian.Uint32(data[off+12:])
		off += sectionFrameHeader
		if length > uint64(int64(len(data))-off) {
			return fmt.Errorf("%w: %s: section %d runs past EOF", ErrSectionCorrupt, path, tag)
		}
		payload := data[off : off+int64(length) : off+int64(length)]
		off += int64(length)
		if tag == sectionPadTag {
			continue
		}
		f.secs[tag] = &sectionFrame{hdr: hdr, payload: payload, crc: crc}
	}
	return nil
}

// Mapped reports whether section payloads alias a memory mapping
// (false: they alias one heap buffer).
func (f *SectionFile) Mapped() bool { return f.mapped }

// Size returns the file size in bytes.
func (f *SectionFile) Size() int64 { return int64(len(f.data)) }

// Has reports whether a section with the given tag is present.
func (f *SectionFile) Has(tag uint32) bool { return f.secs[tag] != nil }

// Section returns the payload of the section with the given tag,
// verifying its checksum on first access (nil, nil if absent). The
// returned slice aliases the file view; callers must not modify it.
func (f *SectionFile) Section(tag uint32) ([]byte, error) {
	s := f.secs[tag]
	if s == nil {
		return nil, nil
	}
	if !s.verified.Load() {
		if !s.verifyCRC() {
			return nil, fmt.Errorf("%w: %s: section %d checksum mismatch", ErrSectionCorrupt, f.path, tag)
		}
		s.verified.Store(true)
	}
	return s.payload, nil
}

// Tags returns every section tag present, sorted ascending. The scrub
// sweep uses it as a stable cursor space: the set is fixed at parse
// time, so a slice-at-a-time sweep can resume where it left off.
func (f *SectionFile) Tags() []uint32 {
	out := make([]uint32, 0, len(f.secs))
	for tag := range f.secs {
		out = append(out, tag)
	}
	slices.Sort(out)
	return out
}

// VerifyTag re-checksums the section with the given tag unconditionally
// — unlike Section, which trusts a previous verification. This is the
// scrubber's primitive: a mapped checkpoint's bytes come straight off
// the file, so silent on-disk corruption (bit rot, a misdirected write)
// shows up here even after the section verified clean at load time. On
// success the section's lazy-verification flag is (re)confirmed; on
// mismatch the flag is cleared, so subsequent Section reads fail too
// instead of serving bytes known to be bad. A missing tag verifies
// trivially (nil).
func (f *SectionFile) VerifyTag(tag uint32) error {
	s := f.secs[tag]
	if s == nil {
		return nil
	}
	if !s.verifyCRC() {
		s.verified.Store(false)
		return fmt.Errorf("%w: %s: section %d checksum mismatch", ErrSectionCorrupt, f.path, tag)
	}
	s.verified.Store(true)
	return nil
}

// Path returns the path the file view was opened from.
func (f *SectionFile) Path() string { return f.path }

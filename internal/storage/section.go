package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// A sectioned checkpoint file is the store's only snapshot container: a
// flat file holding a small number of large, individually checksummed
// sections (raw node columns, CSR arrays, sorted index streams,
// text-index postings). It is built for bulk load: a cold open maps (or
// reads) the whole file in one step and hands each section to a decoder
// as a typed slice, instead of replaying records one at a time.
//
// Layout:
//
//	header:  [magic u32][version u32][reserved u64]
//	section: [tag u32][length u64][crc32c u32][payload ...]   (repeated)
//
// Zero-filled pad frames (tag 0) are inserted so every real section's
// payload starts on a sectionPageSize boundary. Each frame's CRC covers
// its tag and length fields and then the payload, so a flipped bit
// anywhere in a frame fails verification. Files of any other container
// version are refused with ErrBadVersion. Atomicity is the journal's
// job: a checkpoint file only becomes live once the journal metadata
// names it, after a full fsync, so a torn section file is unreachable
// garbage, not a recovery hazard.

// sectionMagic identifies sectioned checkpoint files. Distinct from
// fileHeaderMagic so the journal can sniff which snapshot format it is
// opening; a heap file starts with a page CRC, which cannot collide
// with magic+version both matching.
const sectionMagic = uint32(0x53C7F11E)

// sectionVersion is the container version this package reads and
// writes: page-aligned payloads, frame CRCs covering tag and length.
const sectionVersion = uint32(4)

// sectionPageSize is the payload alignment. 4 KiB matches the page size
// of every platform we run on; a platform with larger pages still maps
// these files fine (alignment is about in-memory slice element
// alignment, which needs only 8 bytes — the page size is chosen so
// payloads also start on page boundaries for I/O friendliness).
const sectionPageSize = 4096

// sectionFrameCRC computes a frame's checksum over its 12-byte
// tag+length prefix and then the payload chunks.
func sectionFrameCRC(hdr12 []byte, chunks ...[]byte) uint32 {
	crc := crc32.Checksum(hdr12, castagnoli)
	for _, c := range chunks {
		crc = crc32.Update(crc, castagnoli, c)
	}
	return crc
}

// sectionPadTag marks a pad frame: its payload is alignment fill, not a
// section. Readers must skip it; real section tags start at 1.
const sectionPadTag = uint32(0)

const sectionFileHeader = 16 // magic u32 + version u32 + reserved u64
const sectionFrameHeader = 16

// Section errors.
var (
	// ErrNotSectioned indicates a file that is not a sectioned checkpoint.
	ErrNotSectioned = errors.New("storage: not a sectioned checkpoint file")
	// ErrSectionCorrupt indicates a sectioned checkpoint with a bad
	// frame or checksum.
	ErrSectionCorrupt = errors.New("storage: corrupt checkpoint section")
)

// SectionWriter streams sections into a checkpoint file. It is not safe
// for concurrent use; the background checkpoint goroutine owns it.
type SectionWriter struct {
	f    *os.File
	path string
	enc  Encoder // per-section scratch, reused across sections
	size int64
}

// CreateSectionFile creates (or truncates) a sectioned checkpoint file
// at path and writes its header.
func CreateSectionFile(path string) (*SectionWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create sections %s: %w", path, err)
	}
	var hdr [sectionFileHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], sectionMagic)
	binary.LittleEndian.PutUint32(hdr[4:], sectionVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &SectionWriter{f: f, path: path, size: sectionFileHeader}, nil
}

// sectionPadZeros backs pad-frame payloads; pad frames are shorter than
// one page by construction.
var sectionPadZeros [sectionPageSize]byte

// alignPayload pads the file so the next frame's payload starts on a
// page boundary. The pad is itself a well-formed frame (tag 0), so the
// frame walk needs no special case for it.
func (w *SectionWriter) alignPayload() error {
	if (w.size+sectionFrameHeader)%sectionPageSize == 0 {
		return nil
	}
	padLen := (sectionPageSize - (w.size+2*sectionFrameHeader)%sectionPageSize) % sectionPageSize
	pad := sectionPadZeros[:padLen]
	var hdr [sectionFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], sectionPadTag)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(padLen))
	binary.LittleEndian.PutUint32(hdr[12:], sectionFrameCRC(hdr[:12], pad))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(pad); err != nil {
		return err
	}
	w.size += sectionFrameHeader + int64(padLen)
	return nil
}

// WriteSection encodes one section through fill (into a reusable
// scratch encoder) and appends it to the file.
func (w *SectionWriter) WriteSection(tag uint32, fill func(e *Encoder) error) error {
	w.enc.Reset()
	if err := fill(&w.enc); err != nil {
		return err
	}
	return w.WriteSectionBytes(tag, w.enc.Bytes())
}

// WriteSectionBytes appends one section whose payload is the
// concatenation of chunks. The chunks are streamed straight to the
// file (one CRC pass, no intermediate buffer), which is how the raw
// fixed-width column sections avoid copying megabytes through the
// encoder scratch.
func (w *SectionWriter) WriteSectionBytes(tag uint32, chunks ...[]byte) error {
	if err := w.alignPayload(); err != nil {
		return err
	}
	var total uint64
	for _, c := range chunks {
		total += uint64(len(c))
	}
	var hdr [sectionFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], tag)
	binary.LittleEndian.PutUint64(hdr[4:], total)
	binary.LittleEndian.PutUint32(hdr[12:], sectionFrameCRC(hdr[:12], chunks...))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := w.f.Write(c); err != nil {
			return err
		}
	}
	w.size += sectionFrameHeader + int64(total)
	return nil
}

// Size returns the bytes written so far, header included.
func (w *SectionWriter) Size() int64 { return w.size }

// Close fsyncs and closes the file. The caller must treat a Close error
// as a failed checkpoint (the file may be incomplete on disk).
func (w *SectionWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// IsSectionFile reports whether the file at path carries the
// sectioned-checkpoint magic. It deliberately ignores the version
// byte: a sectioned file of an older or newer container version must
// still route to the sectioned loader, whose ErrBadVersion names the
// version it found — not to the heap-file loader, which would
// misreport it as corruption.
func IsSectionFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [4]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(hdr[0:]) == sectionMagic
}

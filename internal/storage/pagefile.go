package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// PageSize is the unit of I/O for all engine files. 4 KiB matches the
// common filesystem block size, so torn writes are page-granular.
const PageSize = 4096

// pageHeaderSize is the per-page overhead: a CRC32C checksum over the page
// payload plus a 4-byte payload length.
const pageHeaderSize = 8

// PagePayload is the number of usable bytes per page.
const PagePayload = PageSize - pageHeaderSize

// fileHeaderMagic identifies engine page files.
const fileHeaderMagic = uint32(0xB80C7A9E)

// fileFormatVersion is bumped on incompatible layout changes.
const fileFormatVersion = uint32(1)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Pagefile errors.
var (
	// ErrBadVersion indicates an unsupported file format version.
	ErrBadVersion = errors.New("storage: unsupported file format version")
	// ErrPageBounds indicates a page number past the end of the file.
	ErrPageBounds = errors.New("storage: page number out of range")
	// ErrClosed indicates use after Close.
	ErrClosed = errors.New("storage: file is closed")
)

// PageFile writes a checksummed, page-granular file: each page carries
// a CRC32C over its payload length and payload. Page 0 is reserved for
// the file header; data pages are numbered from 1. HeapFile is its one
// user.
//
// PageFile is not safe for concurrent use; callers serialise access.
type PageFile struct {
	f      *os.File
	path   string
	pages  uint32 // number of pages including the header page
	closed bool
}

// CreatePageFile creates (or truncates) a page file at path.
func CreatePageFile(path string) (*PageFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	pf := &PageFile{f: f, path: path, pages: 1}
	if err := pf.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return pf, nil
}

func (pf *PageFile) writeHeader() error {
	var payload [PagePayload]byte
	binary.LittleEndian.PutUint32(payload[0:], fileHeaderMagic)
	binary.LittleEndian.PutUint32(payload[4:], fileFormatVersion)
	return pf.writePageRaw(0, payload[:])
}

// Size returns the file size in bytes.
func (pf *PageFile) Size() int64 { return int64(pf.pages) * PageSize }

// AllocPage extends the file by one zeroed page and returns its number.
func (pf *PageFile) AllocPage() (uint32, error) {
	if pf.closed {
		return 0, ErrClosed
	}
	n := pf.pages
	var zero [PagePayload]byte
	if err := pf.writePageRaw(n, zero[:]); err != nil {
		return 0, err
	}
	pf.pages++
	return n, nil
}

// WritePage writes payload (at most PagePayload bytes) to page n with a
// fresh checksum.
func (pf *PageFile) WritePage(n uint32, payload []byte) error {
	if pf.closed {
		return ErrClosed
	}
	if n == 0 || n >= pf.pages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageBounds, n, pf.pages)
	}
	return pf.writePageRaw(n, payload)
}

func (pf *PageFile) writePageRaw(n uint32, payload []byte) error {
	if len(payload) > PagePayload {
		return fmt.Errorf("storage: payload %d exceeds page payload %d", len(payload), PagePayload)
	}
	var page [PageSize]byte
	copy(page[pageHeaderSize:], payload)
	binary.LittleEndian.PutUint32(page[4:], uint32(len(payload)))
	sum := crc32.Checksum(page[4:], castagnoli)
	binary.LittleEndian.PutUint32(page[0:], sum)
	_, err := pf.f.WriteAt(page[:], int64(n)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: write page %d of %s: %w", n, pf.path, err)
	}
	return nil
}

// Close syncs and closes the file. Close is idempotent.
func (pf *PageFile) Close() error {
	if pf.closed {
		return nil
	}
	pf.closed = true
	if err := pf.f.Sync(); err != nil {
		pf.f.Close()
		return err
	}
	return pf.f.Close()
}

package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// filePage decodes page n of a page file's raw bytes the way the
// writer lays it out — [crc32c u32][payload length u32][payload], the
// CRC covering everything after itself — and returns its payload, or
// an error if the checksum or length does not hold.
func filePage(raw []byte, n int) ([]byte, error) {
	if len(raw)%PageSize != 0 || (n+1)*PageSize > len(raw) {
		return nil, fmt.Errorf("page %d: file of %d bytes", n, len(raw))
	}
	page := raw[n*PageSize : (n+1)*PageSize]
	if crc32.Checksum(page[4:], castagnoli) != binary.LittleEndian.Uint32(page) {
		return nil, fmt.Errorf("page %d: checksum mismatch", n)
	}
	plen := binary.LittleEndian.Uint32(page[4:])
	if plen > PagePayload {
		return nil, fmt.Errorf("page %d: payload length %d", n, plen)
	}
	return page[pageHeaderSize : pageHeaderSize+plen], nil
}

func TestPageFileCreateOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.pf")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Size() != PageSize {
		t.Fatalf("Size = %d, want %d (header only)", pf.Size(), PageSize)
	}
	n, err := pf.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("first data page = %d, want 1", n)
	}
	payload := bytes.Repeat([]byte{0xAB}, 100)
	if err := pf.WritePage(n, payload); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := filePage(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(hdr) != fileHeaderMagic || binary.LittleEndian.Uint32(hdr[4:]) != fileFormatVersion {
		t.Fatalf("header page = % x..., want magic and version", hdr[:8])
	}
	got, err := filePage(raw, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("page %d = %d bytes, want %d identical bytes", n, len(got), len(payload))
	}
}

func TestPageFileRejectsHeaderWrite(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "b.pf"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if err := pf.WritePage(0, []byte("x")); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("WritePage(0) = %v, want ErrPageBounds", err)
	}
}

func TestPageFileOutOfRange(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "c.pf"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if err := pf.WritePage(99, nil); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("WritePage(99) = %v, want ErrPageBounds", err)
	}
}

func TestPageFilePayloadTooLarge(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "d.pf"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	n, err := pf.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.WritePage(n, make([]byte, PagePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// TestPageFileChecksumDetectsCorruption: the checksum the writer stores
// covers the page payload, so a flipped payload byte no longer matches.
func TestPageFileChecksumDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.pf")
	pf, err := CreatePageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := pf.AllocPage()
	if err := pf.WritePage(n, []byte("important data")); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the data page.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[PageSize+20] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := filePage(raw, int(n)); err == nil {
		t.Fatal("a flipped payload byte still matches the page checksum")
	}
}

func TestPageFileUseAfterClose(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "h.pf"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil (idempotent)", err)
	}
	if err := pf.WritePage(1, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("WritePage after close = %v, want ErrClosed", err)
	}
	if _, err := pf.AllocPage(); !errors.Is(err, ErrClosed) {
		t.Fatalf("AllocPage after close = %v, want ErrClosed", err)
	}
}

func TestPageFileSizeAccounting(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "i.pf"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	for i := 0; i < 5; i++ {
		if _, err := pf.AllocPage(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := pf.Size(), int64(6*PageSize); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
}

package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeTestSections(t *testing.T, path string, secs map[uint32][]byte) int64 {
	t.Helper()
	w, err := CreateSectionFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic order for reproducible offsets.
	for tag := uint32(0); tag < 64; tag++ {
		payload, ok := secs[tag]
		if !ok {
			continue
		}
		if err := w.WriteSection(tag, func(e *Encoder) error {
			e.Raw(payload)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	size := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return size
}

// readSections opens the sectioned file at path and returns every
// section's payload keyed by tag, each verified against its checksum.
func readSections(path string) (map[uint32][]byte, error) {
	sf, err := OpenSectionFile(path, false)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	secs := make(map[uint32][]byte)
	for _, tag := range sf.Tags() {
		p, err := sf.Section(tag)
		if err != nil {
			return nil, err
		}
		secs[tag] = append([]byte(nil), p...)
	}
	return secs, nil
}

func TestSectionRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.sec")
	want := map[uint32][]byte{
		1: []byte("columnar node table"),
		2: make([]byte, 100_000), // a large section spanning many pages
		7: {},                    // empty sections are legal
		9: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	for i := range want[2] {
		want[2][i] = byte(i * 31)
	}
	size := writeTestSections(t, path, want)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size {
		t.Fatalf("Size() = %d, file is %d", size, fi.Size())
	}
	got, err := readSections(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d sections, want %d", len(got), len(want))
	}
	for tag, payload := range want {
		g, ok := got[tag]
		if !ok {
			t.Fatalf("section %d missing", tag)
		}
		if string(g) != string(payload) {
			t.Fatalf("section %d: %d bytes differ", tag, len(payload))
		}
	}
}

func TestSectionCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.sec")
	writeTestSections(t, path, map[uint32][]byte{1: []byte("hello sections")})

	// Flip one payload byte: the CRC must catch it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readSections(path); err == nil {
		t.Fatal("corrupt section payload read back without error")
	}

	// Truncate mid-section: must be detected, not silently dropped.
	writeTestSections(t, path, map[uint32][]byte{1: make([]byte, 5000)})
	fi, _ := os.Stat(path)
	if err := os.Truncate(path, fi.Size()-100); err != nil {
		t.Fatal(err)
	}
	if _, err := readSections(path); err == nil {
		t.Fatal("truncated section file read back without error")
	}
}

func TestSectionSniffRejectsOtherFormats(t *testing.T) {
	dir := t.TempDir()
	heap := filepath.Join(dir, "heap.snap")
	h, err := CreateHeapFile(heap)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append([]byte("v1 record")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{false, true} {
		_, err := OpenSectionFile(heap, mapped)
		if !errors.Is(err, ErrNotSectioned) || !errors.Is(err, ErrBadVersion) {
			t.Fatalf("OpenSectionFile on a heap file, mapped %v: err = %v, want ErrNotSectioned and ErrBadVersion", mapped, err)
		}
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte{1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSectionFile(short, false); !errors.Is(err, ErrNotSectioned) {
		t.Fatalf("OpenSectionFile on a 2-byte file: err = %v, want ErrNotSectioned", err)
	}
}

// TestSectionFutureVersionRouting: a sectioned file of any other
// container version — an older one (2, 3) or an unknown newer one —
// fails to open and to verify with ErrBadVersion, so the operator sees
// "unsupported version", not a corruption error.
func TestSectionFutureVersionRouting(t *testing.T) {
	for _, v := range []byte{2, 3, 99} {
		path := filepath.Join(t.TempDir(), "other.sec")
		writeTestSections(t, path, map[uint32][]byte{1: []byte("payload")})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[4] = v
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{false, true} {
			if _, err := OpenSectionFile(path, mapped); !errors.Is(err, ErrBadVersion) {
				t.Fatalf("version %d, mapped %v: OpenSectionFile err = %v, want ErrBadVersion", v, mapped, err)
			}
		}
		if err := VerifySnapshotFile(path); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("version %d: VerifySnapshotFile err = %v, want ErrBadVersion", v, err)
		}
	}
}

// TestFrameHeaderCorruptionDetected is the regression the torture
// harness earned: a single bit flipped in a frame's *tag* field (length
// intact) parses as a perfectly framed file whose section merely
// changed name — with a payload-only CRC that passed every check while
// making the checkpoint unloadable ("missing nodes section" at open).
// The header-covering checksum must call it corruption through every
// read path: lazy Section and the scrubber's VerifyTag.
func TestFrameHeaderCorruptionDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.sec")
	writeTestSections(t, path, map[uint32][]byte{7: []byte("the nodes column")})

	// The first real frame of an aligned file sits right before its
	// page-aligned payload; locate it by walking, then flip one tag bit.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(sectionFileHeader)
	for {
		tag := uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24
		length := int64(uint64(data[off+4]) | uint64(data[off+5])<<8 | uint64(data[off+6])<<16 | uint64(data[off+7])<<24)
		if tag != sectionPadTag {
			break
		}
		off += sectionFrameHeader + length
	}
	data[off] ^= 0x01 // tag 7 -> tag 6, framing untouched
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sf, err := OpenSectionFile(path, false)
	if err != nil {
		t.Fatal(err) // directory parse alone cannot know; reads must
	}
	defer sf.Close()
	for _, tag := range sf.Tags() {
		if err := sf.VerifyTag(tag); err == nil {
			t.Fatalf("VerifyTag(%d) clean on a flipped frame tag", tag)
		}
		if _, err := sf.Section(tag); err == nil {
			t.Fatalf("Section(%d) served a flipped frame tag", tag)
		}
	}
	if len(sf.Tags()) == 0 {
		t.Fatal("flipped-tag frame vanished from the directory entirely")
	}
}

package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// FuzzSectionFile writes arbitrary bytes as a checkpoint file and opens
// it mapped and on the heap, the two ways a journal reopen reads its
// snapshot. Opening must never panic. When it succeeds, every tag's
// Section payload must lie inside the file view and equal the file's
// bytes there, and VerifyTag must agree with Section on whether the
// section is corrupt. The seed corpus in testdata/fuzz/FuzzSectionFile
// holds files written by SectionWriter, clean and damaged, and a heap
// file.
func FuzzSectionFile(f *testing.F) {
	// Inputs run one at a time within a fuzzing process, so one path
	// serves them all.
	path := filepath.Join(f.TempDir(), "f.snap")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mapped := range []bool{false, true} {
			sf, err := OpenSectionFile(path, mapped)
			if err != nil {
				continue
			}
			if sf.Size() != int64(len(data)) {
				t.Fatalf("mapped %v: view of %d bytes, file is %d", mapped, sf.Size(), len(data))
			}
			base := uintptr(unsafe.Pointer(unsafe.SliceData(sf.data)))
			for _, tag := range sf.Tags() {
				if tag == sectionPadTag {
					t.Fatalf("mapped %v: pad frame listed as a section", mapped)
				}
				p, serr := sf.Section(tag)
				verr := sf.VerifyTag(tag)
				if (serr == nil) != (verr == nil) {
					t.Fatalf("mapped %v, tag %d: Section err %v, VerifyTag err %v", mapped, tag, serr, verr)
				}
				if serr != nil || len(p) == 0 {
					continue
				}
				off := uintptr(unsafe.Pointer(unsafe.SliceData(p))) - base
				if off < sectionFileHeader+sectionFrameHeader || off+uintptr(len(p)) > uintptr(len(data)) {
					t.Fatalf("mapped %v, tag %d: %d-byte payload at offset %d, outside the %d-byte file", mapped, tag, len(p), int64(off), len(data))
				}
				if !bytes.Equal(p, data[off:off+uintptr(len(p))]) {
					t.Fatalf("mapped %v, tag %d: payload differs from the file's bytes at %d", mapped, tag, off)
				}
			}
			sf.Close()
		}
	})
}

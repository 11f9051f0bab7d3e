package provgraph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// sectionPayload returns the file offset and length of the payload of
// the section with the given tag in the checkpoint at path.
func sectionPayload(t testing.TB, path string, tag uint32) (off, length int64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off = 16 // section file header
	for off+16 <= int64(len(b)) {
		tg := binary.LittleEndian.Uint32(b[off:])
		length = int64(binary.LittleEndian.Uint64(b[off+4:]))
		off += 16
		if tg == tag {
			return off, length
		}
		off += length
	}
	t.Fatalf("no section %d in %s", tag, path)
	return 0, 0
}

// lensSectionOf returns the lens section payload and the max node ID of
// the checkpoint at path.
func lensSectionOf(t testing.TB, path string) ([]byte, NodeID) {
	t.Helper()
	f, err := storage.OpenSectionFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := f.Section(secV3Lens)
	if err != nil || p == nil {
		t.Fatalf("lens section: %v (present: %v)", err, p != nil)
	}
	meta, err := f.Section(secV3Meta)
	if err != nil {
		t.Fatal(err)
	}
	maxID, err := storage.NewDecoder(meta).Uvarint()
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), p...), NodeID(maxID)
}

// TestLensSectionBitRot: a flipped byte in the lens section's payload is
// reported by the online scrub of the mapped store and by
// VerifySnapshotFile, and a later open fails instead of serving lens
// rows from the rotten bytes.
func TestLensSectionBitRot(t *testing.T) {
	dir := buildLensStore(t, VersionNodes, 1)
	path := storage.SnapshotFilePath(dir, "provgraph", 1)
	s := reopenWith(t, dir, Options{})
	defer s.Close()
	if s.Snapshot().sealed.lens == nil {
		t.Fatal("reopened store did not load the lens section")
	}

	off, length := sectionPayload(t, path, secV3Lens)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var one [1]byte
	if _, err := f.ReadAt(one[:], off+length-3); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x5A
	if _, err := f.WriteAt(one[:], off+length-3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	section := fmt.Sprintf("section %d ", secV3Lens)
	err = s.Scrub(0, 0)
	if !errors.Is(err, storage.ErrSectionCorrupt) || !strings.Contains(err.Error(), section) {
		t.Fatalf("scrub err = %v, want ErrSectionCorrupt naming %q", err, section)
	}
	err = storage.VerifySnapshotFile(path)
	if !errors.Is(err, storage.ErrSectionCorrupt) || !strings.Contains(err.Error(), section) {
		t.Fatalf("VerifySnapshotFile err = %v, want ErrSectionCorrupt naming %q", err, section)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, noMmap := range []bool{false, true} {
		re, err := OpenWith(dir, Options{NoMmap: noMmap})
		if err == nil {
			re.Close()
			t.Fatalf("noMmap=%v: store opened over a rotten lens section", noMmap)
		}
		if !errors.Is(err, storage.ErrSectionCorrupt) {
			t.Fatalf("noMmap=%v: open err = %v, want ErrSectionCorrupt", noMmap, err)
		}
	}
}

// TestLensSectionInvalidRefused: a lens section whose checksum is valid
// but whose arrays are not a lens of the epoch fails the open with an
// error, mapped or on the heap.
func TestLensSectionInvalidRefused(t *testing.T) {
	dir := buildLensStore(t, VersionNodes, 2)
	path := storage.SnapshotFilePath(dir, "provgraph", 1)
	good, maxID := lensSectionOf(t, path)
	n := int(maxID) + 2
	offBytes := (4*n + 7) &^ 7
	put32 := func(p []byte, i int, v uint32) []byte {
		binary.LittleEndian.PutUint32(p[i:], v)
		return p
	}
	cases := map[string]func(p []byte) []byte{
		"truncated":         func(p []byte) []byte { return p[:len(p)-8] },
		"trailing bytes":    func(p []byte) []byte { return append(p, make([]byte, 8)...) },
		"offsets too short": func(p []byte) []byte { return p[:offBytes] },
		"out id zero": func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[2*offBytes:], 0)
			return p
		},
		"in id past max": func(p []byte) []byte {
			binary.LittleEndian.PutUint64(p[len(p)-8:], uint64(maxID)+1)
			return p
		},
		"out offsets decrease":  func(p []byte) []byte { return put32(p, 4*(n/2), 1<<31) },
		"in offsets start late": func(p []byte) []byte { return put32(p, offBytes, 1) },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeLensSection(corrupt(append([]byte(nil), good...)), maxID); err == nil {
				t.Fatal("decoder accepted the payload")
			}
			rewriteCheckpoint(t, path, secV3Lens, corrupt(append([]byte(nil), good...)))
			for _, noMmap := range []bool{false, true} {
				re, err := OpenWith(dir, Options{NoMmap: noMmap})
				if err == nil {
					re.Close()
					t.Fatalf("noMmap=%v: store opened over an invalid lens section", noMmap)
				}
			}
		})
	}
	rewriteCheckpoint(t, path, secV3Lens, good)
	reopenWith(t, dir, Options{}).Close()
}

// FuzzLensSection feeds arbitrary lens section payloads, against the
// meta of a small store, to the decoder: it must fail with an error or
// return rows that stay within the epoch's ID space, never panic. The
// small store's own section seeds the corpus beside testdata/fuzz.
func FuzzLensSection(f *testing.F) {
	dir := f.TempDir()
	s, err := OpenWith(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	u := func(name string) string { return "http://" + name + ".example/" }
	for i, ev := range []*event.Event{
		visit(1, u("o"), "O", "", event.TransTyped, t0),
		visit(1, u("a"), "A", u("o"), event.TransLink, t0.Add(time.Second)),
		visit(1, u("b"), "B", u("a"), event.TransRedirectPermanent, t0.Add(2*time.Second)),
		visit(1, u("c"), "C", u("b"), event.TransRedirectTemporary, t0.Add(3*time.Second)),
		visit(1, u("ad"), "", u("c"), event.TransEmbed, t0.Add(4*time.Second)),
		visit(1, u("d"), "D", u("c"), event.TransLink, t0.Add(5*time.Second)),
	} {
		if err := s.Apply(ev); err != nil {
			f.Fatalf("event %d: %v", i, err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	good, maxID := lensSectionOf(f, storage.SnapshotFilePath(dir, "provgraph", 1))
	f.Add(good)
	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := decodeLensSection(p, maxID)
		if err != nil {
			return
		}
		for id := NodeID(1); id <= maxID; id++ {
			for _, row := range [][]NodeID{r.outRow(id), r.inRow(id)} {
				for _, to := range row {
					if to == 0 || to > maxID {
						t.Fatalf("row of %d holds %d, outside 1..%d", id, to, maxID)
					}
				}
			}
		}
	})
}

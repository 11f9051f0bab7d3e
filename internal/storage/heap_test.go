package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeHeap appends recs to a fresh heap file, closes it and returns its
// path. It checks that Size agrees with the file on disk.
func writeHeap(t *testing.T, recs [][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "h.heap")
	h, err := CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := h.Append(r); err != nil {
			t.Fatalf("Append(%d bytes): %v", len(r), err)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != h.Size() {
		t.Fatalf("Size() = %d, file is %d bytes", h.Size(), fi.Size())
	}
	return path
}

// heapRecords decodes every record of the heap file at path in append
// order, walking the slotted pages and following overflow chains as the
// writer lays them out, and failing on any page it cannot account for.
func heapRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	page := func(n uint32) []byte {
		t.Helper()
		p, err := filePage(raw, int(n))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out [][]byte
	for n := uint32(1); int(n) < len(raw)/PageSize; n++ {
		p := page(n)
		if p[0] == pageKindOverflow {
			continue
		}
		if p[0] != pageKindSlotted {
			t.Fatalf("page %d: kind %#x", n, p[0])
		}
		for s := uint16(0); s < heapNumSlots(p); s++ {
			slot := p[heapPageHeader+int(s)*slotSize:]
			off, length := binary.LittleEndian.Uint16(slot), binary.LittleEndian.Uint16(slot[2:])
			body := p[off : off+length]
			switch body[0] {
			case recInline:
				out = append(out, body[1:])
			case recOverflow:
				var rec []byte
				for next := binary.LittleEndian.Uint32(body[1:]); next != 0; {
					op := page(next)
					if op[0] != pageKindOverflow {
						t.Fatalf("page %d in an overflow chain has kind %#x", next, op[0])
					}
					rec = append(rec, op[overflowHeader:overflowHeader+binary.LittleEndian.Uint32(op[5:])]...)
					next = binary.LittleEndian.Uint32(op[1:])
				}
				if total := binary.LittleEndian.Uint32(body[5:]); uint32(len(rec)) != total {
					t.Fatalf("overflow chain holds %d bytes, stub says %d", len(rec), total)
				}
				out = append(out, rec)
			default:
				t.Fatalf("page %d slot %d: record marker %#x", n, s, body[0])
			}
		}
	}
	return out
}

// checkRecords asserts that got holds exactly want, in order.
func checkRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: %d bytes decoded, want %d identical bytes", i, len(got[i]), len(want[i]))
		}
	}
}

func TestHeapAppendGet(t *testing.T) {
	recs := [][]byte{
		[]byte("alpha"),
		[]byte(""),
		[]byte("a slightly longer record with some text in it"),
		bytes.Repeat([]byte{0x42}, 1000),
	}
	checkRecords(t, heapRecords(t, writeHeap(t, recs)), recs)
}

func TestHeapOverflowRecords(t *testing.T) {
	sizes := []int{inlineLimit, inlineLimit + 1, PagePayload, PagePayload * 3, 100_000}
	var recs [][]byte
	rng := rand.New(rand.NewSource(1))
	for _, n := range sizes {
		rec := make([]byte, n)
		rng.Read(rec)
		recs = append(recs, rec)
	}
	checkRecords(t, heapRecords(t, writeHeap(t, recs)), recs)
}

func TestHeapScanOrder(t *testing.T) {
	const n = 5000
	var recs [][]byte
	for i := 0; i < n; i++ {
		recs = append(recs, []byte(fmt.Sprintf("record-%06d", i)))
	}
	checkRecords(t, heapRecords(t, writeHeap(t, recs)), recs)
}

// TestHeapScanSkipsOverflowPages: an overflow record's chain pages sit
// between slotted pages, and its slot still decodes in append order.
func TestHeapScanSkipsOverflowPages(t *testing.T) {
	recs := [][]byte{[]byte("small-1"), bytes.Repeat([]byte("x"), PagePayload*2), []byte("small-2")}
	checkRecords(t, heapRecords(t, writeHeap(t, recs)), recs)
}

// TestHeapPersistence: Close writes out the page still receiving
// appends, so every record is in the file once it returns.
func TestHeapPersistence(t *testing.T) {
	var recs [][]byte
	for i := 0; i < 1000; i++ {
		recs = append(recs, []byte(fmt.Sprintf("persist-%d", i)))
	}
	checkRecords(t, heapRecords(t, writeHeap(t, recs)), recs)
}

func TestHeapManyRecordsRandomSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs [][]byte
	for i := 0; i < 2000; i++ {
		n := rng.Intn(200)
		if rng.Intn(50) == 0 {
			n = rng.Intn(3 * PagePayload) // occasional overflow record
		}
		rec := make([]byte, n)
		rng.Read(rec)
		recs = append(recs, rec)
	}
	checkRecords(t, heapRecords(t, writeHeap(t, recs)), recs)
}

// TestHeapSizeAtInlineAndOverflowBoundaries pins the file sizes the
// writer produces where its layout changes: how many records share a
// slotted page, where a record leaves the page for an overflow chain,
// and where that chain takes a second page. E1 reports these sizes.
func TestHeapSizeAtInlineAndOverflowBoundaries(t *testing.T) {
	const chunk = PagePayload - overflowHeader
	recs := func(n, size int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = bytes.Repeat([]byte{byte(i)}, size)
		}
		return out
	}
	cases := []struct {
		name  string
		recs  [][]byte
		pages int64
	}{
		{"empty", nil, 1},
		{"815 empty records fill a page", recs(815, 0), 2},
		{"the 816th starts another", recs(816, 0), 3},
		{"largest inline record", recs(1, inlineLimit-1), 2},
		{"three largest inline records share a page", recs(3, inlineLimit-1), 2},
		{"the fourth starts another", recs(4, inlineLimit-1), 3},
		{"smallest overflow record", recs(1, inlineLimit), 3},
		{"one full overflow chunk", recs(1, chunk), 3},
		{"one byte past a chunk", recs(1, chunk+1), 4},
	}
	for _, c := range cases {
		path := writeHeap(t, c.recs)
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.pages * PageSize; fi.Size() != want {
			t.Errorf("%s: %d bytes, want %d (%d pages)", c.name, fi.Size(), want, c.pages)
		}
		checkRecords(t, heapRecords(t, path), c.recs)
	}
}

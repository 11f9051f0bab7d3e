package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
)

// A HeapFile is an append-only file of variable-length records stored
// in slotted pages inside a PageFile. It is the record substrate of
// experiment E1: both schemas are dumped into one (RecordDumpBytes) so
// that their sizes differ by schema, not by container format. Nothing
// reads a heap file back; its page, slot and overflow layout matters
// because E1's numbers are its page counts.
//
// Every page payload begins with a one-byte page kind so that slotted
// and overflow pages can never be confused.
//
// Slotted page payload:
//
//	[kind u8][numSlots u16][dataEnd u16] [slot0 off u16,len u16] ... free ... [recN]...[rec0]
//
// Slot data grows from the end of the payload toward the slot array.
// Records larger than inlineLimit spill into an overflow chain; the
// in-page record then holds a 1-byte marker, the first overflow page
// number and the total length. Small records carry a 0x00 marker byte.
//
// Overflow page payload:
//
//	[kind u8][next page u32][chunk length u32][chunk bytes]
type HeapFile struct {
	pf *PageFile

	// curPage is the page currently receiving appends (0 = none yet).
	curPage    uint32
	curPayload []byte // cached full-size payload of curPage
}

const (
	pageKindSlotted  = 0x51
	pageKindOverflow = 0x0F

	heapPageHeader = 5 // kind u8 + numSlots u16 + dataEnd u16
	slotSize       = 4 // offset u16 + length u16

	recInline   = 0x00
	recOverflow = 0x01

	overflowHeader = 9 // kind u8 + next page u32 + chunk length u32
)

// CreateHeapFile creates a new heap file at path.
func CreateHeapFile(path string) (*HeapFile, error) {
	pf, err := CreatePageFile(path)
	if err != nil {
		return nil, err
	}
	return &HeapFile{pf: pf}, nil
}

// RecordDumpBytes writes records into a temporary heap file through
// write and returns the file's size; the file is removed before it
// returns. Experiment E1 measures each schema's state this way.
func RecordDumpBytes(write func(h *HeapFile) error) (int64, error) {
	dir, err := os.MkdirTemp("", "record-dump-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	h, err := CreateHeapFile(filepath.Join(dir, "dump"))
	if err != nil {
		return 0, err
	}
	if err := write(h); err != nil {
		h.Close()
		return 0, err
	}
	if err := h.Close(); err != nil {
		return 0, err
	}
	return h.Size(), nil
}

// Size returns the file size in bytes.
func (h *HeapFile) Size() int64 { return h.pf.Size() }

// Close flushes and closes the heap file.
func (h *HeapFile) Close() error {
	if h.curPage != 0 && h.curPayload != nil {
		if err := h.pf.WritePage(h.curPage, h.curPayload); err != nil {
			h.pf.Close()
			return err
		}
	}
	return h.pf.Close()
}

func heapNumSlots(p []byte) uint16 { return binary.LittleEndian.Uint16(p[1:]) }
func heapDataEnd(p []byte) uint16  { return binary.LittleEndian.Uint16(p[3:]) }

func heapSetNumSlots(p []byte, v uint16) { binary.LittleEndian.PutUint16(p[1:], v) }
func heapSetDataEnd(p []byte, v uint16)  { binary.LittleEndian.PutUint16(p[3:], v) }

func heapSetSlot(p []byte, i uint16, off, length uint16) {
	base := heapPageHeader + int(i)*slotSize
	binary.LittleEndian.PutUint16(p[base:], off)
	binary.LittleEndian.PutUint16(p[base+2:], length)
}

// heapFreeSpace reports the bytes available for a new record (including
// its slot entry) in payload p.
func heapFreeSpace(p []byte) int {
	slots := int(heapNumSlots(p))
	slotEnd := heapPageHeader + slots*slotSize
	return int(heapDataEnd(p)) - slotEnd - slotSize
}

// newHeapPayload returns an initialised empty slotted-page payload.
func newHeapPayload() []byte {
	p := make([]byte, PagePayload)
	p[0] = pageKindSlotted
	heapSetNumSlots(p, 0)
	heapSetDataEnd(p, PagePayload)
	return p
}

// inlineLimit is the largest record body (marker byte included) stored
// inline; larger records use an overflow chain. Three bodies at the
// limit share a slotted page.
const inlineLimit = PagePayload / 4

// Append stores rec. The record bytes are copied.
func (h *HeapFile) Append(rec []byte) error {
	if len(rec)+1 <= inlineLimit {
		body := make([]byte, 0, len(rec)+1)
		body = append(body, recInline)
		body = append(body, rec...)
		return h.appendBody(body)
	}
	first, err := h.writeOverflow(rec)
	if err != nil {
		return err
	}
	var body [9]byte
	body[0] = recOverflow
	binary.LittleEndian.PutUint32(body[1:], first)
	binary.LittleEndian.PutUint32(body[5:], uint32(len(rec)))
	return h.appendBody(body[:])
}

func (h *HeapFile) appendBody(body []byte) error {
	need := len(body) + slotSize
	if h.curPage == 0 || heapFreeSpace(h.curPayload) < need {
		// Flush the current page and start a fresh one.
		if h.curPage != 0 {
			if err := h.pf.WritePage(h.curPage, h.curPayload); err != nil {
				return err
			}
		}
		n, err := h.pf.AllocPage()
		if err != nil {
			return err
		}
		h.curPage = n
		h.curPayload = newHeapPayload()
	}
	p := h.curPayload
	slot := heapNumSlots(p)
	end := heapDataEnd(p)
	off := end - uint16(len(body))
	copy(p[off:end], body)
	heapSetSlot(p, slot, off, uint16(len(body)))
	heapSetNumSlots(p, slot+1)
	heapSetDataEnd(p, off)
	return nil
}

// writeOverflow writes rec across a chain of overflow pages, returning the
// first page number. Pages are written last-chunk-first so each page knows
// its successor when written.
func (h *HeapFile) writeOverflow(rec []byte) (uint32, error) {
	const chunk = PagePayload - overflowHeader
	var chunks [][]byte
	for len(rec) > 0 {
		n := min(chunk, len(rec))
		chunks = append(chunks, rec[:n])
		rec = rec[n:]
	}
	next := uint32(0)
	for i := len(chunks) - 1; i >= 0; i-- {
		n, err := h.pf.AllocPage()
		if err != nil {
			return 0, err
		}
		payload := make([]byte, overflowHeader+len(chunks[i]))
		payload[0] = pageKindOverflow
		binary.LittleEndian.PutUint32(payload[1:], next)
		binary.LittleEndian.PutUint32(payload[5:], uint32(len(chunks[i])))
		copy(payload[overflowHeader:], chunks[i])
		if err := h.pf.WritePage(n, payload); err != nil {
			return 0, err
		}
		next = n
	}
	return next, nil
}

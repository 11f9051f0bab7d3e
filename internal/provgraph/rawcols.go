package provgraph

import (
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"
)

// Raw fixed-width column codecs for the checkpoint schema. Every array
// section is a little-endian dump of its in-memory form; on a
// little-endian machine with an aligned payload (which the page-aligned
// container guarantees), loading is a pointer cast — the mapped file
// bytes ARE the arrays, and untouched pages never fault in. The decode
// branches below exist for big-endian platforms and for any payload
// that is not element-aligned; they produce identical slices, just on
// the heap.

// hostLittleEndian reports the byte order of this machine, computed once.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Struct sizes for the load-time heap accounting MappedInfo reports.
const (
	nodeStructBytes = int64(unsafe.Sizeof(Node{}))
	edgeStructBytes = int64(unsafe.Sizeof(Edge{}))
)

// canAlias reports whether p can be reinterpreted in place as an array
// of elemSize-byte little-endian values.
func canAlias(p []byte, elemSize int) bool {
	if !hostLittleEndian || len(p) == 0 {
		return len(p) == 0 // empty always "aliases" (to a nil slice)
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(p)))%uintptr(elemSize) == 0
}

func aliasU32(p []byte) []uint32 {
	n := len(p) / 4
	if n == 0 {
		return nil
	}
	if canAlias(p, 4) {
		return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(p))), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return out
}

func aliasI64(p []byte) []int64 {
	n := len(p) / 8
	if n == 0 {
		return nil
	}
	if canAlias(p, 8) {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(p))), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

func aliasNodeIDs(p []byte) []NodeID {
	n := len(p) / 8
	if n == 0 {
		return nil
	}
	if canAlias(p, 8) {
		return unsafe.Slice((*NodeID)(unsafe.Pointer(unsafe.SliceData(p))), n)
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// aliasString views p as a string without copying. Safe for checkpoint
// payloads: the backing file view is immutable and the store holds a
// reference to it (released only after Close and the last pinned read,
// when no alias can be reached anymore).
func aliasString(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(p), len(p))
}

// ---- write-side views: slice -> little-endian bytes ----

func u32Bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
	}
	out := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(out[4*i:], x)
	}
	return out
}

func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

func nodeIDBytes(v []NodeID) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// ---- column-backed node table ----

// nodeCols is the zero-copy node table of a checkpoint: per-field
// arrays aliasing the (typically memory-mapped) checkpoint file, plus
// string columns served as substrings of shared blobs. A sealedEpoch
// carrying a nodeCols reconstructs Node values on demand instead of
// holding a ~140-byte-per-node slab on the heap; the slab only
// materialises if the store thaws for writing (see Store.thawLocked).
type nodeCols struct {
	flags   []byte  // kind in the low bits + presence flags (nf*)
	openUS  []int64 // open time, unix micros (0 = zero time)
	closeUS []int64 // close time, unix micros
	page    []NodeID
	via     []byte
	seq     []uint32

	// String spans: (start, end) byte offsets into the per-column blob,
	// at indices (2*id, 2*id+1). Elided visit fields carry their page's
	// span, resolved at write time.
	urlOff    []uint32
	titleOff  []uint32
	textOff   []uint32
	urlBlob   string
	titleBlob string
	textBlob  string
}

func (c *nodeCols) strAt(off []uint32, blob string, id NodeID) string {
	return blob[off[2*id]:off[2*id+1]]
}

// node reconstructs the full Node value for id. Strings are zero-copy
// substrings of the column blobs.
func (c *nodeCols) node(id NodeID) (Node, bool) {
	f := c.flags[id]
	if f == 0 {
		return Node{}, false
	}
	n := Node{
		ID:       id,
		Kind:     NodeKind(f & nfKindMask),
		URL:      c.strAt(c.urlOff, c.urlBlob, id),
		Title:    c.strAt(c.titleOff, c.titleBlob, id),
		Text:     c.strAt(c.textOff, c.textBlob, id),
		Open:     microTime(c.openUS[id]),
		Page:     c.page[id],
		VisitSeq: int(c.seq[id]),
		Via:      EdgeKind(c.via[id]),
	}
	if f&nfClose != 0 {
		n.Close = microTime(c.closeUS[id])
	}
	return n, true
}

// kindPage reads the kind and page columns of id: node's answer for those
// two fields, with no string or time decoded.
func (c *nodeCols) kindPage(id NodeID) (NodeKind, NodeID, bool) {
	f := c.flags[id]
	if f == 0 {
		return 0, 0, false
	}
	return NodeKind(f & nfKindMask), c.page[id], true
}

// openClose reads the open and close columns of id, as node does.
func (c *nodeCols) openClose(id NodeID) (open, close time.Time, ok bool) {
	f := c.flags[id]
	if f == 0 {
		return time.Time{}, time.Time{}, false
	}
	if f&nfClose != 0 {
		close = microTime(c.closeUS[id])
	}
	return microTime(c.openUS[id]), close, true
}

func (c *nodeCols) kind(id NodeID) NodeKind {
	return NodeKind(c.flags[id] & nfKindMask)
}

// checkSpans validates one string-offset column against its blob so a
// corrupt (but CRC-clean, i.e. impossible in practice) file cannot
// induce out-of-range substring panics later.
func checkSpans(off []uint32, blobLen int, name string) error {
	for i := 0; i+1 < len(off); i += 2 {
		if off[i] > off[i+1] || int(off[i+1]) > blobLen {
			return fmt.Errorf("provgraph: checkpoint %s span %d out of range", name, i/2)
		}
	}
	return nil
}

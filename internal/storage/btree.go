package storage

import (
	"bytes"
)

// BTree is an in-memory B-tree mapping byte-string keys to uint64 values.
// It backs every secondary index in the engine (URL, term, and time
// indexes). Keys are unique; Put overwrites. Keys are copied on insert,
// so callers may reuse their buffers.
//
// The tree is rebuilt from snapshots at open time and therefore needs no
// on-disk format of its own; what it must be is correct and fast for
// range scans, which the history queries lean on heavily.
//
// BTree is not safe for concurrent mutation; stores serialise access.
type BTree struct {
	root   *btreeNode
	length int
}

// btreeDegree is the minimum degree t: every node other than the root has
// at least t-1 and at most 2t-1 keys.
const btreeDegree = 32

type btreeNode struct {
	keys     [][]byte
	values   []uint64
	children []*btreeNode // nil for leaves
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btreeNode{}}
}

// Len returns the number of keys in the tree.
func (t *BTree) Len() int { return t.length }

// search returns the index of the first key >= k in n, and whether it is
// an exact match.
func btreeSearch(n *btreeNode, k []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(n.keys[lo], k)
}

// Get returns the value stored under k.
func (t *BTree) Get(k []byte) (uint64, bool) {
	n := t.root
	for {
		i, ok := btreeSearch(n, k)
		if ok {
			return n.values[i], true
		}
		if n.leaf() {
			return 0, false
		}
		n = n.children[i]
	}
}

// Put stores v under k, replacing any existing value. It reports whether
// the key was newly inserted.
func (t *BTree) Put(k []byte, v uint64) bool {
	if len(t.root.keys) == 2*btreeDegree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}}
		t.splitChild(t.root, 0)
	}
	inserted := t.insertNonFull(t.root, k, v)
	if inserted {
		t.length++
	}
	return inserted
}

// splitChild splits the full child parent.children[i].
func (t *BTree) splitChild(parent *btreeNode, i int) {
	child := parent.children[i]
	mid := btreeDegree - 1
	right := &btreeNode{
		keys:   append([][]byte(nil), child.keys[mid+1:]...),
		values: append([]uint64(nil), child.values[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
	}
	upKey, upVal := child.keys[mid], child.values[mid]
	child.keys = child.keys[:mid]
	child.values = child.values[:mid]
	if !child.leaf() {
		child.children = child.children[:mid+1]
	}
	parent.keys = append(parent.keys, nil)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = upKey
	parent.values = append(parent.values, 0)
	copy(parent.values[i+1:], parent.values[i:])
	parent.values[i] = upVal
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *BTree) insertNonFull(n *btreeNode, k []byte, v uint64) bool {
	for {
		i, ok := btreeSearch(n, k)
		if ok {
			n.values[i] = v
			return false
		}
		if n.leaf() {
			kc := append([]byte(nil), k...)
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = kc
			n.values = append(n.values, 0)
			copy(n.values[i+1:], n.values[i:])
			n.values[i] = v
			return true
		}
		if len(n.children[i].keys) == 2*btreeDegree-1 {
			t.splitChild(n, i)
			switch c := bytes.Compare(k, n.keys[i]); {
			case c == 0:
				n.values[i] = v
				return false
			case c > 0:
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes k, reporting whether it was present.
func (t *BTree) Delete(k []byte) bool {
	deleted := t.delete(t.root, k)
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	if deleted {
		t.length--
	}
	return deleted
}

// delete removes k from the subtree rooted at n, which is guaranteed by
// the caller to have at least btreeDegree keys unless it is the root.
func (t *BTree) delete(n *btreeNode, k []byte) bool {
	i, ok := btreeSearch(n, k)
	if n.leaf() {
		if !ok {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.values = append(n.values[:i], n.values[i+1:]...)
		return true
	}
	if ok {
		// Key is in an internal node: replace with predecessor or
		// successor from a child that can spare a key, else merge.
		if len(n.children[i].keys) >= btreeDegree {
			pk, pv := btreeMax(n.children[i])
			n.keys[i], n.values[i] = pk, pv
			return t.delete(n.children[i], pk)
		}
		if len(n.children[i+1].keys) >= btreeDegree {
			sk, sv := btreeMin(n.children[i+1])
			n.keys[i], n.values[i] = sk, sv
			return t.delete(n.children[i+1], sk)
		}
		t.mergeChildren(n, i)
		return t.delete(n.children[i], k)
	}
	// Key (if present) lives in children[i]; top it up if minimal.
	child := n.children[i]
	if len(child.keys) == btreeDegree-1 {
		switch {
		case i > 0 && len(n.children[i-1].keys) >= btreeDegree:
			t.rotateRight(n, i-1)
		case i < len(n.children)-1 && len(n.children[i+1].keys) >= btreeDegree:
			t.rotateLeft(n, i)
		default:
			if i == len(n.children)-1 {
				i--
			}
			t.mergeChildren(n, i)
			child = n.children[i]
		}
		child = n.children[i]
	}
	return t.delete(child, k)
}

// rotateRight moves the last key of children[i] up into the parent and the
// parent separator down into children[i+1].
func (t *BTree) rotateRight(n *btreeNode, i int) {
	left, right := n.children[i], n.children[i+1]
	right.keys = append(right.keys, nil)
	copy(right.keys[1:], right.keys)
	right.keys[0] = n.keys[i]
	right.values = append(right.values, 0)
	copy(right.values[1:], right.values)
	right.values[0] = n.values[i]
	n.keys[i] = left.keys[len(left.keys)-1]
	n.values[i] = left.values[len(left.values)-1]
	left.keys = left.keys[:len(left.keys)-1]
	left.values = left.values[:len(left.values)-1]
	if !left.leaf() {
		right.children = append(right.children, nil)
		copy(right.children[1:], right.children)
		right.children[0] = left.children[len(left.children)-1]
		left.children = left.children[:len(left.children)-1]
	}
}

// rotateLeft moves the first key of children[i+1] up into the parent and
// the parent separator down into children[i].
func (t *BTree) rotateLeft(n *btreeNode, i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.values = append(left.values, n.values[i])
	n.keys[i] = right.keys[0]
	n.values[i] = right.values[0]
	right.keys = append(right.keys[:0], right.keys[1:]...)
	right.values = append(right.values[:0], right.values[1:]...)
	if !left.leaf() {
		left.children = append(left.children, right.children[0])
		right.children = append(right.children[:0], right.children[1:]...)
	}
}

// mergeChildren merges children[i], the separator key i, and children[i+1]
// into a single node.
func (t *BTree) mergeChildren(n *btreeNode, i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.keys = append(left.keys, right.keys...)
	left.values = append(left.values, n.values[i])
	left.values = append(left.values, right.values...)
	left.children = append(left.children, right.children...)
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

func btreeMax(n *btreeNode) ([]byte, uint64) {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.keys[len(n.keys)-1], n.values[len(n.values)-1]
}

func btreeMin(n *btreeNode) ([]byte, uint64) {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.values[0]
}

// BulkLoad replaces the tree's contents with a stream of strictly
// ascending keys, building the tree bottom-up level by level instead of
// paying N root-to-leaf descents with splits. Checkpoint recovery uses
// it: the checkpoint persists each secondary index as a sorted
// key/value stream, so rebuilding the index is one linear pass with
// every node filled near capacity. next returns (key, value, true) per
// entry and ok=false at the end; keys are copied, so next may reuse one
// buffer. Feeding unsorted or duplicate keys is a caller bug and
// corrupts lookups.
func (t *BTree) BulkLoad(next func() (k []byte, v uint64, ok bool)) {
	var keys [][]byte
	var values []uint64
	var arena []byte // key bytes bump-allocated in blocks, not per key
	for {
		k, v, ok := next()
		if !ok {
			break
		}
		if len(k) > cap(arena)-len(arena) {
			arena = make([]byte, 0, max(64<<10, len(k)))
		}
		lo := len(arena)
		arena = append(arena, k...)
		keys = append(keys, arena[lo:len(arena):len(arena)])
		values = append(values, v)
	}
	t.length = len(keys)
	if len(keys) == 0 {
		t.root = &btreeNode{}
		return
	}
	const maxKeys = 2*btreeDegree - 1
	children := []*btreeNode(nil)
	// Build one level per iteration: distribute the current key run into
	// as few nodes as the occupancy bound allows (each between t-1 and
	// 2t-1 keys — the arithmetic below guarantees both whenever a split
	// is needed at all), promote the separators between consecutive
	// nodes, and repeat on the separators until one node holds them all.
	for len(keys) > maxKeys {
		n := len(keys)
		m := (n + 1 + maxKeys) / (maxKeys + 1) // number of nodes this level
		perNode := n - (m - 1)                 // keys staying at this level
		base, rem := perNode/m, perNode%m
		nodes := make([]*btreeNode, 0, m)
		upKeys := make([][]byte, 0, m-1)
		upValues := make([]uint64, 0, m-1)
		ki, ci := 0, 0
		for i := 0; i < m; i++ {
			take := base
			if i < rem {
				take++
			}
			node := &btreeNode{
				keys:   keys[ki : ki+take : ki+take],
				values: values[ki : ki+take : ki+take],
			}
			ki += take
			if children != nil {
				node.children = children[ci : ci+take+1 : ci+take+1]
				ci += take + 1
			}
			nodes = append(nodes, node)
			if i < m-1 {
				// The key between two nodes moves up a level.
				upKeys = append(upKeys, keys[ki])
				upValues = append(upValues, values[ki])
				ki++
			}
		}
		keys, values, children = upKeys, upValues, nodes
	}
	t.root = &btreeNode{keys: keys, values: values, children: children}
}

// AscendRange visits every key k with lo <= k < hi in ascending order.
// A nil hi means "to the end"; a nil lo means "from the start". The
// visitor returns false to stop early. The key slice passed to fn must
// not be modified.
func (t *BTree) AscendRange(lo, hi []byte, fn func(k []byte, v uint64) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *BTree) ascend(n *btreeNode, lo, hi []byte, fn func(k []byte, v uint64) bool) bool {
	start := 0
	if lo != nil {
		start, _ = btreeSearch(n, lo)
	}
	for i := start; i <= len(n.keys); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], lo, hi, fn) {
				return false
			}
		}
		if i == len(n.keys) {
			break
		}
		if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
			return false
		}
		if !fn(n.keys[i], n.values[i]) {
			return false
		}
		// Descendants of children[i+1] are all > keys[i] >= lo, so the
		// lower bound is satisfied for the rest of this node.
		lo = nil
	}
	return true
}

// Ascend visits every key in ascending order.
func (t *BTree) Ascend(fn func(k []byte, v uint64) bool) {
	t.AscendRange(nil, nil, fn)
}

// Min returns the smallest key and its value.
func (t *BTree) Min() ([]byte, uint64, bool) {
	if t.length == 0 {
		return nil, 0, false
	}
	k, v := btreeMin(t.root)
	return k, v, true
}

// Max returns the largest key and its value.
func (t *BTree) Max() ([]byte, uint64, bool) {
	if t.length == 0 {
		return nil, 0, false
	}
	k, v := btreeMax(t.root)
	return k, v, true
}

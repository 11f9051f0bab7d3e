package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeBasic(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Get([]byte("missing")); ok {
		t.Fatal("Get on empty tree succeeded")
	}
	if !bt.Put([]byte("a"), 1) {
		t.Fatal("first Put reported update")
	}
	if bt.Put([]byte("a"), 2) {
		t.Fatal("second Put reported insert")
	}
	if v, ok := bt.Get([]byte("a")); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if bt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", bt.Len())
	}
	if !bt.Delete([]byte("a")) {
		t.Fatal("Delete failed")
	}
	if bt.Delete([]byte("a")) {
		t.Fatal("double Delete succeeded")
	}
	if bt.Len() != 0 {
		t.Fatalf("Len after delete = %d", bt.Len())
	}
}

func TestBTreeInsertLookupMany(t *testing.T) {
	bt := NewBTree()
	const n = 20000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i*7919%n)) // pseudo-shuffled
		bt.Put(key, uint64(i))
	}
	if bt.Len() != n {
		t.Fatalf("Len = %d, want %d", bt.Len(), n)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%08d", i))
		if _, ok := bt.Get(key); !ok {
			t.Fatalf("key %q missing", key)
		}
	}
}

func TestBTreeAscendSorted(t *testing.T) {
	bt := NewBTree()
	rng := rand.New(rand.NewSource(3))
	keys := make(map[string]bool)
	for i := 0; i < 5000; i++ {
		k := make([]byte, 1+rng.Intn(12))
		rng.Read(k)
		keys[string(k)] = true
		bt.Put(k, uint64(i))
	}
	var prev []byte
	count := 0
	bt.Ascend(func(k []byte, v uint64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("keys out of order: %x then %x", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != len(keys) {
		t.Fatalf("Ascend visited %d, want %d", count, len(keys))
	}
}

func TestBTreeAscendRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(i))
		bt.Put(k[:], uint64(i))
	}
	var lo, hi [8]byte
	binary.BigEndian.PutUint64(lo[:], 100)
	binary.BigEndian.PutUint64(hi[:], 200)
	var got []uint64
	bt.AscendRange(lo[:], hi[:], func(k []byte, v uint64) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 100 {
		t.Fatalf("range [100,200) returned %d keys, want 100", len(got))
	}
	if got[0] != 100 || got[99] != 199 {
		t.Fatalf("range endpoints = %d..%d, want 100..199", got[0], got[99])
	}
}

func TestBTreeAscendEarlyStop(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], uint64(i))
		bt.Put(k[:], uint64(i))
	}
	count := 0
	bt.Ascend(func(k []byte, v uint64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d, want 10", count)
	}
}

func TestBTreeMinMax(t *testing.T) {
	bt := NewBTree()
	if _, _, ok := bt.Min(); ok {
		t.Fatal("Min on empty tree succeeded")
	}
	if _, _, ok := bt.Max(); ok {
		t.Fatal("Max on empty tree succeeded")
	}
	for i := 100; i < 200; i++ {
		bt.Put([]byte(fmt.Sprintf("%03d", i)), uint64(i))
	}
	if k, v, ok := bt.Min(); !ok || string(k) != "100" || v != 100 {
		t.Fatalf("Min = %q,%d,%v", k, v, ok)
	}
	if k, v, ok := bt.Max(); !ok || string(k) != "199" || v != 199 {
		t.Fatalf("Max = %q,%d,%v", k, v, ok)
	}
}

func TestBTreeDeleteMany(t *testing.T) {
	bt := NewBTree()
	const n = 10000
	perm := rand.New(rand.NewSource(11)).Perm(n)
	for _, i := range perm {
		bt.Put([]byte(fmt.Sprintf("k%06d", i)), uint64(i))
	}
	// Delete every other key in a different random order.
	perm2 := rand.New(rand.NewSource(13)).Perm(n)
	deleted := make(map[int]bool)
	for _, i := range perm2 {
		if i%2 == 0 {
			if !bt.Delete([]byte(fmt.Sprintf("k%06d", i))) {
				t.Fatalf("Delete(k%06d) failed", i)
			}
			deleted[i] = true
		}
	}
	if bt.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", bt.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := bt.Get([]byte(fmt.Sprintf("k%06d", i)))
		if deleted[i] && ok {
			t.Fatalf("deleted key k%06d still present", i)
		}
		if !deleted[i] && !ok {
			t.Fatalf("live key k%06d missing", i)
		}
	}
	// Order must still hold after heavy deletion.
	var prev []byte
	bt.Ascend(func(k []byte, v uint64) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("order violated after deletes: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		return true
	})
}

// TestBTreePropertyVsMap drives the tree with a random operation sequence
// and cross-checks every observable against a reference map.
func TestBTreePropertyVsMap(t *testing.T) {
	f := func(ops []struct {
		Key    uint16
		Value  uint64
		Delete bool
	}) bool {
		bt := NewBTree()
		ref := make(map[uint16]uint64)
		for _, op := range ops {
			var k [2]byte
			binary.BigEndian.PutUint16(k[:], op.Key)
			if op.Delete {
				want := false
				if _, present := ref[op.Key]; present {
					want = true
					delete(ref, op.Key)
				}
				if bt.Delete(k[:]) != want {
					return false
				}
			} else {
				_, present := ref[op.Key]
				ref[op.Key] = op.Value
				if bt.Put(k[:], op.Value) != !present {
					return false
				}
			}
		}
		checkBTreeInvariants(t, bt)
		if bt.Len() != len(ref) {
			return false
		}
		for key, val := range ref {
			var k [2]byte
			binary.BigEndian.PutUint16(k[:], key)
			got, ok := bt.Get(k[:])
			if !ok || got != val {
				return false
			}
		}
		// Ascend must visit exactly the reference keys in sorted order.
		var sorted []uint16
		for key := range ref {
			sorted = append(sorted, key)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		idx := 0
		okAll := true
		bt.Ascend(func(k []byte, v uint64) bool {
			if idx >= len(sorted) {
				okAll = false
				return false
			}
			key := binary.BigEndian.Uint16(k)
			if key != sorted[idx] || v != ref[key] {
				okAll = false
				return false
			}
			idx++
			return true
		})
		return okAll && idx == len(sorted)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// checkBTreeInvariants walks the tree verifying the classic B-tree
// structure: uniform leaf depth, per-node occupancy bounds (root
// exempt from the minimum), sorted keys, and separator ordering.
func checkBTreeInvariants(t *testing.T, bt *BTree) {
	t.Helper()
	var walk func(n *btreeNode, depth int, isRoot bool) int // returns leaf depth
	walk = func(n *btreeNode, depth int, isRoot bool) int {
		if len(n.keys) > 2*btreeDegree-1 {
			t.Fatalf("node with %d keys exceeds max %d", len(n.keys), 2*btreeDegree-1)
		}
		if !isRoot && len(n.keys) < btreeDegree-1 {
			t.Fatalf("non-root node with %d keys below min %d", len(n.keys), btreeDegree-1)
		}
		for i := 1; i < len(n.keys); i++ {
			if string(n.keys[i-1]) >= string(n.keys[i]) {
				t.Fatalf("keys out of order at %d: %q >= %q", i, n.keys[i-1], n.keys[i])
			}
		}
		if n.leaf() {
			return depth
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("internal node: %d keys but %d children", len(n.keys), len(n.children))
		}
		leafDepth := -1
		for i, c := range n.children {
			d := walk(c, depth+1, false)
			if leafDepth == -1 {
				leafDepth = d
			} else if d != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, d)
			}
			if i < len(n.keys) {
				if mx, _ := btreeMax(c); string(mx) >= string(n.keys[i]) {
					t.Fatalf("separator %q not above child max %q", n.keys[i], mx)
				}
			}
			if i > 0 {
				if mn, _ := btreeMin(c); string(mn) <= string(n.keys[i-1]) {
					t.Fatalf("separator %q not below child min %q", n.keys[i-1], mn)
				}
			}
		}
		return leafDepth
	}
	walk(bt.root, 0, true)
}

func TestBTreeKeyCopying(t *testing.T) {
	bt := NewBTree()
	k := []byte("mutate-me")
	bt.Put(k, 1)
	k[0] = 'X' // caller reuses the buffer
	if _, ok := bt.Get([]byte("mutate-me")); !ok {
		t.Fatal("tree affected by caller mutating the key buffer")
	}
}

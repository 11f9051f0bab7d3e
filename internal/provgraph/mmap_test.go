package provgraph

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"browserprov/internal/storage"
)

// reopenWith closes nothing and opens dir with the given options.
func reopenWith(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := OpenWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMmapVsHeapLoadEquivalence: the mapped and heap-buffer loads of the
// same checkpoint must expose identical stores — column decoding is the
// same code path, only the residency of the backing bytes differs — and
// MappedInfo must report which mode is serving.
func TestMmapVsHeapLoadEquivalence(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(300, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	mapped := reopenWith(t, dir, Options{})
	defer mapped.Close()
	heap := reopenWith(t, dir, Options{NoMmap: true})
	defer heap.Close()
	storesMustMatch(t, mapped, heap)

	if mi := heap.MappedInfo(); mi.MappedBytes != 0 || mi.HeapBytes == 0 {
		t.Fatalf("NoMmap open reported %+v, want heap-only residency", mi)
	}
	if mi := mapped.MappedInfo(); mi.MappedBytes == 0 && mi.HeapBytes == 0 {
		t.Fatalf("mapped open reported no checkpoint residency at all: %+v", mi)
	}
}

// TestMmapBitFlipDetected: a committed checkpoint with flipped bits must
// be refused at open with ErrSectionCorrupt — the lazy per-section CRCs
// still guard every section the loader touches. Bits are flipped every
// few hundred bytes across the whole file past the header page, so the
// damage lands in section payloads and frame headers alike.
func TestMmapBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(300, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := filepath.Join(dir, "provgraph.snap.000001")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for off := 4096; off < len(data); off += 257 {
		data[off] ^= 0x40
	}
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir)
	if err == nil {
		t.Fatal("bit-flipped checkpoint opened without error")
	}
	if !errors.Is(err, storage.ErrSectionCorrupt) {
		t.Fatalf("open error = %v, want ErrSectionCorrupt", err)
	}
}

// TestMmapCorruptNextGenDebrisIgnored: a bit-flipped (not merely torn)
// next-generation checkpoint that never reached the metadata swap must
// not poison recovery — the store comes back from the previous
// checkpoint plus the WAL tail, byte-equal to a store that never
// crashed, and keeps serving off the (intact) previous mapping.
func TestMmapCorruptNextGenDebrisIgnored(t *testing.T) {
	dir := t.TempDir()
	evs := genIngestEvents(240, t0)
	s := openStore(t, dir)
	applyAll(t, s, evs[:150])
	if err := s.Checkpoint(); err != nil { // gen 1, durable
		t.Fatal(err)
	}
	applyAll(t, s, evs[150:]) // WAL tail rides across the "crash"
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Gen-2 debris: a truncated copy of gen 1 with bits flipped through
	// it — worse than a clean torn prefix.
	gen1 := filepath.Join(dir, "provgraph.snap.000001")
	full, err := os.ReadFile(gen1)
	if err != nil {
		t.Fatal(err)
	}
	debris := append([]byte(nil), full[:len(full)*2/3]...)
	for off := 128; off < len(debris); off += 311 {
		debris[off] ^= 0xFF
	}
	if err := os.WriteFile(filepath.Join(dir, "provgraph.snap.000002"), debris, 0o644); err != nil {
		t.Fatal(err)
	}

	ref := openStore(t, t.TempDir())
	defer ref.Close()
	applyAll(t, ref, evs)

	re := openStore(t, dir)
	defer re.Close()
	storesMustMatch(t, ref, re)
	// The next checkpoint claims the gen-2 path over the debris.
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over corrupt debris: %v", err)
	}
}

// TestMmapQueryDuringMutationAndCheckpoint is the aliasing safety net
// for the mapped load (run it with -race): readers hammer the full read
// surface of a mapped store while writers grow the tail over the mapped
// columns (copying sealed rows on their first change) and a checkpoint
// commits and swaps generations underneath everyone.
func TestMmapQueryDuringMutationAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(400, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openStore(t, dir) // mapped, empty tail
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := s.Snapshot()
				max := sn.MaxNodeID()
				for id := NodeID(1); id <= max; id += 5 {
					if n, ok := sn.NodeByID(id); ok {
						_ = sn.Out(id)
						_ = sn.In(id)
						if n.Kind == KindPage {
							_, _ = sn.PageByURL(n.URL)
							_ = sn.VisitsOfPage(id)
						}
					}
				}
				_ = sn.Downloads()
				_ = s.Snapshot().Stats()
				_ = s.MappedInfo()
			}
		}()
	}

	// Writers: batches keep the tail (and reseals) churning; a
	// checkpoint swaps generations in the middle of it.
	for round := 0; round < 6; round++ {
		batch := genIngestEvents(50, t0.Add(time.Duration(10000+100*round)*time.Minute))
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if round == 3 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if cyc := s.VerifyDAG(); cyc != nil {
		t.Fatalf("cycle after concurrent mutation over mapped store: %v", cyc)
	}
}

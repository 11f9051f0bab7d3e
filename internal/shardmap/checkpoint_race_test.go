package shardmap

import (
	"fmt"
	"sync"
	"testing"
)

// TestCheckpointSweepRacesEviction runs provd's sharded checkpoint-tick
// pattern (OpenTenants snapshot → Get → Checkpoint → Release per
// tenant) against an ingest hammer that churns far more tenants than
// the open cap, so LRU eviction constantly closes the stores the sweep
// is trying to pin. The contract under test: a sweep's pinned handle is
// never closed under it, a Get that lands on an evicted tenant reopens
// cleanly, and nothing trips the race detector. Previously this
// interleaving was only exercised incidentally.
func TestCheckpointSweepRacesEviction(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const tenants = 16
	const rounds = 40
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("t%02d", i)
	}

	var wg sync.WaitGroup
	// Ingest hammer: touch tenants round-robin, four writers, forcing
	// evictions on nearly every Get (16 tenants through a 4-store cap).
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := ids[(r*4+w)%tenants]
				h, err := m.Get(id)
				if err != nil {
					t.Errorf("get %s: %v", id, err)
					return
				}
				if err := h.Apply(visitEvent(r, fmt.Sprintf("http://%s.example/p%d", id, r))); err != nil {
					t.Errorf("apply %s: %v", id, err)
				}
				h.Release()
			}
		}(w)
	}

	// Checkpoint ticker: provd's sweep, back to back, concurrent with
	// the hammer. Get may fail only because the map is closing (it
	// blocks through evictions), so any error here is a real bug.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 10; r++ {
			for _, id := range m.OpenTenants() {
				h, err := m.Get(id)
				if err != nil {
					t.Errorf("sweep get %s: %v", id, err)
					continue
				}
				if err := h.Checkpoint(); err != nil {
					t.Errorf("sweep checkpoint %s: %v", id, err)
				}
				h.Release()
			}
		}
	}()
	wg.Wait()

	// Every tenant still has all its writes: eviction under the sweep
	// lost nothing.
	perTenant := make(map[string]int)
	for w := 0; w < 4; w++ {
		for r := 0; r < rounds; r++ {
			perTenant[ids[(r*4+w)%tenants]]++
		}
	}
	for _, id := range ids {
		h, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got := h.Store().Snapshot().Stats().Visits
		h.Release()
		if got != perTenant[id] {
			t.Fatalf("tenant %s has %d visits, want %d", id, got, perTenant[id])
		}
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("no evictions happened; the race was not exercised")
	}
}

package shardmap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"browserprov/internal/event"
)

func visitEvent(i int, url string) *event.Event {
	return &event.Event{
		Time: time.Unix(1700000000+int64(i), 0), Type: event.TypeVisit, Tab: 1,
		URL: url, Title: fmt.Sprintf("title %d", i), Transition: event.TransLink,
	}
}

// seedTenant applies n visits with tenant-distinctive URLs.
func seedTenant(t *testing.T, m *Map, tenant string, n int) {
	t.Helper()
	h, err := m.Get(tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := 0; i < n; i++ {
		if err := h.Apply(visitEvent(i, fmt.Sprintf("http://%s.example/page-%d", tenant, i))); err != nil {
			t.Fatal(err)
		}
	}
}

func countNodes(t *testing.T, m *Map, tenant string) int {
	t.Helper()
	h, err := m.Get(tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return h.Store().Snapshot().Stats().Nodes
}

// TestTenantIsolation: tenants see only their own data, routed to
// distinct directories.
func TestTenantIsolation(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seedTenant(t, m, "alice", 5)
	seedTenant(t, m, "bob", 9)

	ha, _ := m.Get("alice")
	hb, _ := m.Get("bob")
	defer ha.Release()
	defer hb.Release()
	if got := ha.Store().Snapshot().Stats().Visits; got != 5 {
		t.Fatalf("alice visits = %d, want 5", got)
	}
	if got := hb.Store().Snapshot().Stats().Visits; got != 9 {
		t.Fatalf("bob visits = %d, want 9", got)
	}
	// Textual search on one tenant never surfaces the other's pages.
	v := ha.View()
	hits, _, err := v.Search(context.Background(), "title", 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		if got := h.URL; len(got) > 12 && got[7:12] != "alice" {
			t.Fatalf("alice search surfaced foreign URL %s", got)
		}
	}
}

// TestEvictReopenReplaysWALTail: a store evicted with un-checkpointed
// WAL tail comes back complete — checkpoint plus tail replay.
func TestEvictReopenReplaysWALTail(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	h, err := m.Get("primary")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := h.Apply(visitEvent(i, fmt.Sprintf("http://primary.example/p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// WAL tail past the checkpoint.
	for i := 10; i < 17; i++ {
		if err := h.Apply(visitEvent(i, fmt.Sprintf("http://primary.example/p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := h.Store().Snapshot().Stats().Nodes
	h.Release()

	// Cap is 2: opening two other tenants forces primary out.
	seedTenant(t, m, "filler1", 1)
	seedTenant(t, m, "filler2", 1)
	st := m.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected an eviction, stats = %+v", st)
	}

	if got := countNodes(t, m, "primary"); got != want {
		t.Fatalf("reopened primary has %d nodes, want %d (WAL tail lost?)", got, want)
	}
	if got := m.Stats().Reopens; got == 0 {
		t.Fatal("reopen not counted")
	}
}

// TestPinnedSurvivesEviction: a pinned tenant's View keeps answering
// while churn evicts every other tenant around it, and the open count
// never exceeds the cap.
func TestPinnedSurvivesEviction(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seedTenant(t, m, "pinned", 8)

	h, err := m.Get("pinned")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	v := h.View()
	gen := v.Generation()

	for i := 0; i < 12; i++ {
		seedTenant(t, m, fmt.Sprintf("churn-%d", i), 2)
		if open := m.Stats().OpenTenants; open > 3 {
			t.Fatalf("open stores %d exceed cap 3", open)
		}
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("churn should have evicted")
	}
	// The pinned view still serves its generation.
	hits, _, err := v.Search(context.Background(), "title", 10)
	if err != nil {
		t.Fatalf("pinned view query: %v", err)
	}
	if len(hits) == 0 {
		t.Fatal("pinned view lost its data")
	}
	if v.Generation() != gen {
		t.Fatal("pinned view moved generations")
	}
}

// TestCapNeverExceeded hammers Get/Release across many tenants from
// many goroutines (run with -race) while a sampler asserts the open
// count stays within the cap.
func TestCapNeverExceeded(t *testing.T) {
	const cap = 4
	m, err := Open(t.TempDir(), Options{MaxOpen: cap})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				tenant := fmt.Sprintf("t%d", (g*7+i)%16)
				h, err := m.Get(tenant)
				if err != nil {
					t.Errorf("get %s: %v", tenant, err)
					return
				}
				if i%3 == 0 {
					if err := h.Apply(visitEvent(i, fmt.Sprintf("http://%s.example/%d", tenant, i))); err != nil {
						t.Errorf("apply: %v", err)
					}
				} else {
					v := h.View()
					if _, _, err := v.Search(context.Background(), "title", 3); err != nil {
						t.Errorf("search: %v", err)
					}
				}
				h.Release()
			}
		}(g)
	}
	deadline := time.After(500 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			if open := m.Stats().OpenTenants; open > cap {
				t.Errorf("open stores %d exceed cap %d", open, cap)
				done = true
			}
			time.Sleep(time.Millisecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	if st := m.Stats(); st.OpenTenants > cap {
		t.Fatalf("final open stores %d exceed cap %d", st.OpenTenants, cap)
	}
}

// TestMapClose: Close drains and further Gets fail.
func TestMapClose(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	seedTenant(t, m, "x", 3)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := m.Get("x"); !errors.Is(err, ErrMapClosed) {
		t.Fatalf("Get after Close: %v, want ErrMapClosed", err)
	}
	// State survives: a fresh map over the same root sees the tenant.
	m2, err := Open(m.Root(), Options{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.Stats().KnownTenants; got != 1 {
		t.Fatalf("known tenants after reopen = %d, want 1", got)
	}
	if got := countNodes(t, m2, "x"); got == 0 {
		t.Fatal("tenant data lost across map restart")
	}
	if m2.Stats().Reopens != 1 {
		t.Fatal("disk-discovered tenant open should count as reopen")
	}
}

// TestHandleAfterRelease: released handles fail cleanly.
func TestHandleAfterRelease(t *testing.T) {
	m, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
	h.Release() // idempotent
	if err := h.Apply(visitEvent(0, "http://a.example/")); !errors.Is(err, ErrReleased) {
		t.Fatalf("Apply after release: %v, want ErrReleased", err)
	}
	if err := h.View().Err(); !errors.Is(err, ErrReleased) {
		t.Fatalf("View after release: %v, want ErrReleased", err)
	}
	if h.Store() != nil || h.Engine() != nil {
		t.Fatal("Store/Engine must be nil after release")
	}
}

// TestGetBlocksWhenAllPinned: with every slot pinned, Get parks until a
// Release frees one — the cap is hard, not advisory.
func TestGetBlocksWhenAllPinned(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h1, err := m.Get("first")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		h2, err := m.Get("second")
		if err == nil {
			h2.Release()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Get returned (%v) while the only slot was pinned", err)
	case <-time.After(50 * time.Millisecond):
	}
	h1.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never unblocked after Release")
	}
}

package shardmap

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/storage"
)

// flipCheckpointByte flips a payload byte of the first real section of
// the sectioned checkpoint at path (pad frames are never verified).
func flipCheckpointByte(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(16)
	for off+16 <= int64(len(b)) {
		tag := binary.LittleEndian.Uint32(b[off:])
		length := int64(binary.LittleEndian.Uint64(b[off+4:]))
		off += 16
		if tag != 0 && length > 0 {
			f, err := os.OpenFile(path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var one [1]byte
			if _, err := f.ReadAt(one[:], off+length/2); err != nil {
				t.Fatal(err)
			}
			one[0] ^= 0xFF
			if _, err := f.WriteAt(one[:], off+length/2); err != nil {
				t.Fatal(err)
			}
			return
		}
		off += length
	}
	t.Fatal("no non-empty section found")
}

// waitReadmitted polls until tenant accepts Gets again (repair done).
func waitReadmitted(t *testing.T, m *Map, tenant string) *Handle {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		h, err := m.Get(tenant)
		if err == nil {
			return h
		}
		if !errors.Is(err, ErrQuarantined) {
			t.Fatalf("Get(%s): %v", tenant, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("tenant %s never re-admitted; quarantined: %+v", tenant, m.QuarantinedTenants())
	return nil
}

// waitRepairSettled polls until no quarantined tenant is mid-repair.
func waitRepairSettled(t *testing.T, m *Map) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		settled := true
		for _, q := range m.QuarantinedTenants() {
			if q.Repairing {
				settled = false
			}
		}
		if settled {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("repair never settled: %+v", m.QuarantinedTenants())
}

func checkpointTenant(t *testing.T, m *Map, tenant string) {
	t.Helper()
	h, err := m.Get(tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestGetCtxCancelWhileBlockedOnCap(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h1, err := m.Get("first")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		h2, err := m.GetCtx(ctx, "second")
		if err == nil {
			h2.Release()
		}
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("GetCtx returned (%v) while the only slot was pinned", err)
	case <-time.After(50 * time.Millisecond):
	}

	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GetCtx after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("GetCtx never unblocked after cancel")
	}

	// The map is fully functional afterwards.
	h1.Release()
	h3, err := m.GetCtx(context.Background(), "second")
	if err != nil {
		t.Fatal(err)
	}
	h3.Release()
}

func TestGetCtxAlreadyCancelled(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.GetCtx(ctx, "x"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBitRotQuarantineAndAutoRepair is the headline self-healing path:
// bit rot in one tenant's checkpoint is detected by a scrub sweep, the
// tenant is quarantined (503s) and auto-repaired from the retained
// previous generation + WAL replay, losing nothing — while other
// tenants keep serving throughout.
func TestBitRotQuarantineAndAutoRepair(t *testing.T) {
	root := t.TempDir()
	m, err := Open(root, Options{
		MaxOpen: 8,
		Store:   provgraph.Options{SyncEvery: 1, RetainPrevCheckpoint: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	seedTenant(t, m, "victim", 30)
	checkpointTenant(t, m, "victim") // gen 1
	seedTenant(t, m, "victim", 30)   // same URLs: revisits, more nodes
	checkpointTenant(t, m, "victim") // gen 2, gen 1 retained
	seedTenant(t, m, "bystander", 20)
	wantVictim := countNodes(t, m, "victim")
	wantBystander := countNodes(t, m, "bystander")

	// Rot the CURRENT checkpoint of the victim on disk.
	snap := storage.SnapshotFilePath(tenantDir(root, "victim"), "provgraph", 2)
	flipCheckpointByte(t, snap)

	// One sweep detects it and quarantines exactly the victim.
	_, quarantined := m.ScrubSweep(0)
	if len(quarantined) != 1 || quarantined[0] != "victim" {
		t.Fatalf("quarantined = %v, want [victim]", quarantined)
	}

	// Requests for the victim fail fast with the distinct sentinel (the
	// repair may be quick, so tolerate it having already finished).
	if _, err := m.Get("victim"); err != nil {
		var qe *QuarantinedError
		if !errors.As(err, &qe) || !errors.Is(err, ErrQuarantined) {
			t.Fatalf("Get(victim) = %v, want QuarantinedError", err)
		}
		if qe.HTTPStatus() != 503 {
			t.Fatalf("HTTPStatus = %d, want 503", qe.HTTPStatus())
		}
	}

	// Other tenants are untouched while repair runs.
	if got := countNodes(t, m, "bystander"); got != wantBystander {
		t.Fatalf("bystander nodes = %d, want %d", got, wantBystander)
	}

	// The victim re-admits automatically with every event intact.
	h := waitReadmitted(t, m, "victim")
	got := h.Store().Snapshot().Stats().Nodes
	scrubErr := h.Store().Scrub(0, 0)
	h.Release()
	if got != wantVictim {
		t.Fatalf("victim nodes after repair = %d, want %d", got, wantVictim)
	}
	if scrubErr != nil {
		t.Fatalf("victim scrub after repair: %v", scrubErr)
	}
	st := m.Stats()
	if st.Quarantines != 1 || st.Repairs != 1 || st.RepairFailures != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStrikesQuarantineTenant(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 4, StrikeLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seedTenant(t, m, "flaky", 5)

	m.Strike("flaky", "panic in query")
	m.Strike("flaky", "panic in query")
	if qs := m.QuarantinedTenants(); len(qs) != 0 {
		t.Fatalf("quarantined before limit: %+v", qs)
	}
	m.Strike("flaky", "panic in query")

	// Quarantine took effect (or the store — which is healthy — already
	// repaired and re-admitted; either way the counter must show it).
	if st := m.Stats(); st.Quarantines != 1 {
		t.Fatalf("stats = %+v, want Quarantines 1", st)
	}
	// A healthy store passes verification and re-admits, strikes reset.
	h := waitReadmitted(t, m, "flaky")
	h.Release()
	m.mu.Lock()
	strikes := m.entries["flaky"].strikes
	m.mu.Unlock()
	if strikes != 0 {
		t.Fatalf("strikes after re-admit = %d, want 0", strikes)
	}
}

func TestUnrepairableTenantStaysQuarantined(t *testing.T) {
	root := t.TempDir()
	// No RetainPrevCheckpoint: a corrupt current checkpoint has no local
	// fallback and no Rebootstrap hook is configured.
	m, err := Open(root, Options{MaxOpen: 4, Store: provgraph.Options{SyncEvery: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seedTenant(t, m, "doomed", 20)
	checkpointTenant(t, m, "doomed")
	seedTenant(t, m, "fine", 5)

	flipCheckpointByte(t, storage.SnapshotFilePath(tenantDir(root, "doomed"), "provgraph", 1))
	if _, q := m.ScrubSweep(0); len(q) != 1 || q[0] != "doomed" {
		t.Fatalf("quarantined = %v", q)
	}
	waitRepairSettled(t, m)

	qs := m.QuarantinedTenants()
	if len(qs) != 1 || qs[0].Tenant != "doomed" || qs[0].Repairing {
		t.Fatalf("quarantined = %+v", qs)
	}
	if qs[0].Reason == "" {
		t.Fatal("unrepairable reason not exported")
	}
	if _, err := m.Get("doomed"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Get(doomed) = %v, want ErrQuarantined", err)
	}
	// Other tenants unaffected; stats record the failure.
	if got := countNodes(t, m, "fine"); got == 0 {
		t.Fatal("bystander lost data")
	}
	st := m.Stats()
	if st.RepairFailures != 1 || st.Quarantined != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRebootstrapHookRescuesUnrepairableTenant(t *testing.T) {
	root := t.TempDir()
	var hookCalls int
	m, err := Open(root, Options{
		MaxOpen: 4,
		Store:   provgraph.Options{SyncEvery: 1},
		Rebootstrap: func(tenant, dir string) error {
			hookCalls++
			// Stand-in for "fetch a fresh copy from the leader": wipe the
			// corrupt journal so the tenant reopens empty but servable.
			ents, err := os.ReadDir(dir)
			if err != nil {
				return err
			}
			for _, e := range ents {
				if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seedTenant(t, m, "refetch", 15)
	checkpointTenant(t, m, "refetch")
	flipCheckpointByte(t, storage.SnapshotFilePath(tenantDir(root, "refetch"), "provgraph", 1))

	if _, q := m.ScrubSweep(0); len(q) != 1 {
		t.Fatalf("quarantined = %v", q)
	}
	h := waitReadmitted(t, m, "refetch")
	h.Release()
	if hookCalls != 1 {
		t.Fatalf("rebootstrap hook calls = %d, want 1", hookCalls)
	}
	if st := m.Stats(); st.Repairs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuarantineWaitsForPinnedHandles(t *testing.T) {
	m, err := Open(t.TempDir(), Options{MaxOpen: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	seedTenant(t, m, "busy", 5)
	h, err := m.Get("busy")
	if err != nil {
		t.Fatal(err)
	}
	m.Quarantine("busy", fmt.Sprintf("test at %d", time.Now().Unix()))

	// The pinned handle keeps working while repair waits for the drain.
	if err := h.Apply(visitEvent(99, "http://busy.example/during")); err != nil {
		t.Fatalf("pinned handle after quarantine: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := m.Get("busy"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Get during quarantine = %v, want ErrQuarantined", err)
	}
	h.Release()

	h2 := waitReadmitted(t, m, "busy")
	defer h2.Release()
	if got := h2.Store().Snapshot().Stats().Nodes; got == 0 {
		t.Fatal("store lost data across quarantine")
	}
}

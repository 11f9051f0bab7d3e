package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"browserprov/internal/faultfs"
	"browserprov/internal/provgraph"
)

// TestDrainSpoolKillMidDrain crashes a client mid-drain at the worst
// moment — after the server applied a batch but before the client saw
// the ack — and proves the restart converges to exactly-once: the
// durable delete-after-ack per spool file bounds redelivery to the one
// batch whose ack raced the crash, and that batch's preserved event IDs
// drain as all-duplicates.
func TestDrainSpoolKillMidDrain(t *testing.T) {
	base := time.Date(2026, 6, 1, 8, 0, 0, 0, time.UTC)
	batches := []*Batch{
		keyedBatch("drain-a", 20, base),
		keyedBatch("drain-b", 20, base.Add(time.Hour)),
		keyedBatch("drain-c", 20, base.Add(2*time.Hour)),
	}

	dir := t.TempDir()
	store, err := provgraph.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	srv := NewServer(func(string) (Sink, func(), error) { return store, func() {}, nil }, ServerOptions{})
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Phase 1: the server is unreachable, so every batch lands in the
	// spool. A dead proxy endpoint stands in for the outage.
	deadProxy := faultfs.NewProxy(hs.URL)
	defer deadProxy.Close()
	dead := httptest.NewServer(deadProxy)
	dead.Close() // closed immediately: connection refused
	spool := t.TempDir()
	spooler := NewClient(dead.URL+"/ingest", ClientOptions{
		MaxAttempts: 1, BaseBackoff: time.Millisecond, SpoolDir: spool,
	})
	for i, b := range batches {
		if _, err := spooler.SendEvents(context.Background(), b.Events); !errors.Is(err, ErrSpooled) {
			t.Fatalf("spooling batch %d: err = %v, want ErrSpooled", i, err)
		}
	}
	if spooler.SpoolLen() != 3 {
		t.Fatalf("spool holds %d, want 3", spooler.SpoolLen())
	}

	// Phase 2: drain through a fault proxy. Batch 1 delivers cleanly
	// (and its file is durably removed — the persisted progress). Batch
	// 2's delivery is applied by the server but the ack dies on a reset;
	// the one retry is reset before reaching the server; the drain gives
	// up. The process "crashes" here: this client is abandoned with
	// batches 2 and 3 still spooled.
	proxy := faultfs.NewProxy(hs.URL)
	defer proxy.Close()
	ps := httptest.NewServer(proxy)
	defer ps.Close()
	proxy.Script(faultfs.Pass, faultfs.ResetAfter, faultfs.ResetBefore)
	crashed := NewClient(ps.URL+"/ingest", ClientOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		SpoolDir: spool,
	})
	n, err := crashed.DrainSpool(context.Background())
	if err == nil {
		t.Fatal("mid-drain fault script did not surface an error")
	}
	if n != 1 {
		t.Fatalf("delivered %d before the crash, want 1", n)
	}
	if got := crashed.SpoolLen(); got != 2 {
		t.Fatalf("spool holds %d after crash, want 2 (batch 2 acked nowhere, batch 3 untried)", got)
	}

	// Phase 3: a fresh client (the restarted process) drains the rest
	// over a healthy network. Batch 2 is redelivered whole — every event
	// a duplicate the server's window rejects — and batch 3 lands fresh.
	restarted := NewClient(hs.URL+"/ingest", ClientOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, SpoolDir: spool,
	})
	n, err = restarted.DrainSpool(context.Background())
	if err != nil || n != 2 {
		t.Fatalf("post-restart drain: n=%d err=%v, want 2 delivered", n, err)
	}
	if restarted.SpoolLen() != 0 {
		t.Fatalf("spool not empty after full drain: %d", restarted.SpoolLen())
	}

	// The invariant: byte-identical to a store that saw each batch
	// exactly once.
	got := checkpointBytes(t, store, dir)
	want := referenceBytes(t, batches...)
	if !bytes.Equal(got, want) {
		t.Fatalf("store diverged after kill-mid-drain: got %d bytes, want %d", len(got), len(want))
	}
	for i := range batches {
		url := fmt.Sprintf("http://drain-%c.example/p0", 'a'+i)
		if _, ok := store.Snapshot().PageByURL(url); !ok {
			t.Fatalf("batch %d never landed (%s missing)", i, url)
		}
	}
}

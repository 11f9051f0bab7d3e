package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"

	"browserprov/internal/capture"
	"browserprov/internal/event"
	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
)

// failingSink fails every write with err.
type failingSink struct{ err error }

func (f failingSink) ApplyBatchDedup([]string, []*event.Event) ([]bool, error) { return nil, f.err }
func (f failingSink) Sync() error                                              { return f.err }
func (f failingSink) Apply(*event.Event) error                                 { return f.err }
func (f failingSink) ApplyBatch([]*event.Event) error                          { return f.err }

// failingBackend maps every tenant to a failingSink. Its other methods
// are the nil embedded backend's: the test must not reach them.
type failingBackend struct {
	backend
	err error
}

func (b failingBackend) tenant(h string) (string, error)  { return h, nil }
func (b failingBackend) pin(string) (sink, func(), error) { return failingSink{b.err}, func() {}, nil }

// TestCapturePipeTripsDegradedOnDiskFull: a capture pipe whose store
// fails with a full disk latches read-only degraded mode, so /readyz
// stops sending work to a daemon that cannot make it durable — in every
// mode, since every mode captures through the shell's pipes.
func TestCapturePipeTripsDegradedOnDiskFull(t *testing.T) {
	enospc := &os.PathError{Op: "write", Path: "wal", Err: syscall.ENOSPC}
	s := newShell(failingBackend{err: enospc}, shellConfig{})
	p := s.pipe("alice")
	if err := p.batcher.Add(provdVisit(1)); err != nil {
		t.Fatalf("Add buffered below the batch size returned %v", err)
	}
	if bad, _ := s.guard.Degraded(); bad {
		t.Fatal("degraded before anything was delivered")
	}
	if err := p.batcher.Flush(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Flush = %v, want the ENOSPC", err)
	}
	if bad, reason := s.guard.Degraded(); !bad || !strings.Contains(reason, "disk full") {
		t.Fatalf("Degraded() = %v, %q after a disk-full capture delivery; want true, disk full", bad, reason)
	}
	if err := s.ready(); err == nil || !strings.Contains(err.Error(), "degraded") {
		t.Fatalf("ready() = %v, want the degraded-mode refusal", err)
	}
}

// TestApplySalvagingKeepsValidNeighbours: a batch rejected whole for one
// invalid event is re-applied per event, so only that event is lost.
func TestApplySalvagingKeepsValidNeighbours(t *testing.T) {
	sb, err := openStore(t.TempDir(), provgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.store.Close()
	bad := provdVisit(2)
	bad.URL = ""
	evs := []*event.Event{provdVisit(1), bad, provdVisit(3)}
	if err := applySalvaging(sb.store, evs); err == nil {
		t.Fatal("applySalvaging returned nil with an invalid event in the batch")
	}
	if got := sb.store.Snapshot().Stats().Visits; got != 2 {
		t.Fatalf("visits = %d after salvaging, want the 2 valid ones", got)
	}
}

// TestShellPipesConcurrent drives the capture pipes of a sharded shell
// from several goroutines at once — routing, observing, flushing and
// reading /stats fields concurrently — and checks that every captured
// visit lands in its tenant's store.
func TestShellPipesConcurrent(t *testing.T) {
	sb, err := openShards(t.TempDir(), 2, "default", provgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := newShell(sb, shellConfig{})
	const tenants, perTenant = 4, 150
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perTenant; j++ {
				u, _ := url.Parse(fmt.Sprintf("http://t%d.example/p%d", i, j))
				r := httptest.NewRequest(http.MethodGet, u.String(), nil)
				r.Header.Set(ingest.TenantHeader, fmt.Sprintf("t%d", i))
				s.route(r).Observe(capture.Observation{URL: u, Status: http.StatusOK, ContentType: "text/html"})
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 20; k++ {
			s.flush("test")
			_ = s.shellStats()
		}
	}()
	wg.Wait()
	<-done
	s.flush("final")
	if st := s.shellStats(); st.FlushErrors != 0 || st.DroppedEvents != 0 {
		t.Fatalf("flush errors %d, dropped %d", st.FlushErrors, st.DroppedEvents)
	}
	for i := 0; i < tenants; i++ {
		h, err := sb.m.Get(fmt.Sprintf("t%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := h.Store().Snapshot().Stats().Visits
		h.Release()
		if got != perTenant {
			t.Errorf("tenant t%d: %d visits, want %d", i, got, perTenant)
		}
	}
	if err := sb.close(); err != nil {
		t.Fatal(err)
	}
}

package ingest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
)

func testStoreServer(t *testing.T) (*provgraph.Store, *Server) {
	t.Helper()
	s, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	srv := NewServer(func(string) (Sink, func(), error) {
		return s, func() {}, nil
	}, ServerOptions{})
	return s, srv
}

func wireVisit(id, url string, at time.Time) WireEvent {
	return WireEvent{ID: id, Type: "visit", Time: at, Tab: 1, URL: url, Transition: "typed"}
}

func postBatch(t *testing.T, srv http.Handler, body string) (*httptest.ResponseRecorder, *Response) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("malformed response %q: %v", rec.Body.String(), err)
	}
	return rec, &resp
}

func marshalBatch(t *testing.T, evs ...WireEvent) string {
	t.Helper()
	b, err := json.Marshal(Batch{SchemaVersion: SchemaVersion, Events: evs})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestServerAppliesAndDeduplicates(t *testing.T) {
	store, srv := testStoreServer(t)
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	body := marshalBatch(t,
		wireVisit("ev-1", "http://a.example/", at),
		wireVisit("ev-2", "http://b.example/", at.Add(time.Second)),
	)

	_, resp := postBatch(t, srv, body)
	if resp == nil || resp.Applied != 2 || resp.Duplicates != 0 || resp.Rejected != 0 {
		t.Fatalf("first delivery: %+v", resp)
	}
	for i, r := range resp.Results {
		if r.Status != StatusApplied {
			t.Fatalf("result %d = %+v, want applied", i, r)
		}
	}

	// Byte-identical redelivery: all duplicates, store untouched.
	before := store.Snapshot().Stats()
	_, resp = postBatch(t, srv, body)
	if resp == nil || resp.Applied != 0 || resp.Duplicates != 2 {
		t.Fatalf("redelivery: %+v", resp)
	}
	if store.Snapshot().Stats() != before {
		t.Fatal("redelivery changed the store")
	}
	st := srv.Stats()
	if st.Batches != 2 || st.Applied != 2 || st.Duplicates != 2 {
		t.Fatalf("server stats: %+v", st)
	}
}

func TestServerRejectsBadEventsNotBatch(t *testing.T) {
	store, srv := testStoreServer(t)
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	good := wireVisit("ok-1", "http://a.example/", at)
	bad := WireEvent{ID: "bad-1", Type: "visit", Time: at} // no URL/transition
	noID := wireVisit("", "http://b.example/", at)
	badType := WireEvent{ID: "bad-2", Type: "teleport", Time: at, URL: "http://c.example/"}

	_, resp := postBatch(t, srv, marshalBatch(t, bad, good, noID, badType))
	if resp == nil || resp.Applied != 1 || resp.Rejected != 3 {
		t.Fatalf("mixed batch: %+v", resp)
	}
	if resp.Results[1].Status != StatusApplied {
		t.Fatalf("good event result: %+v", resp.Results[1])
	}
	for _, i := range []int{0, 2, 3} {
		if resp.Results[i].Status != StatusRejected || resp.Results[i].Error == "" {
			t.Fatalf("result %d = %+v, want rejected with reason", i, resp.Results[i])
		}
	}
	if _, ok := store.Snapshot().PageByURL("http://a.example/"); !ok {
		t.Fatal("good event did not land")
	}
}

func TestServerStrictDecoding(t *testing.T) {
	_, srv := testStoreServer(t)
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)

	// Unknown field in the envelope: whole batch is malformed (400).
	rec, _ := postBatch(t, srv, `{"schema_version":1,"events":[],"surprise":true}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown envelope field: %d, want 400", rec.Code)
	}
	// Wrong schema version: 400.
	rec, _ = postBatch(t, srv, `{"schema_version":9,"events":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad schema version: %d, want 400", rec.Code)
	}
	// Unknown field in ONE event: that event rejects, siblings apply.
	body := fmt.Sprintf(
		`{"schema_version":1,"events":[{"id":"x1","type":"visit","time":%q,"url":"http://a.example/","transition":"typed","bogus":1},{"id":"x2","type":"visit","time":%q,"url":"http://b.example/","transition":"typed"}]}`,
		at.Format(time.RFC3339), at.Format(time.RFC3339))
	_, resp := postBatch(t, srv, body)
	if resp == nil || resp.Rejected != 1 || resp.Applied != 1 {
		t.Fatalf("unknown event field: %+v", resp)
	}
	if resp.Results[0].Status != StatusRejected || !strings.Contains(resp.Results[0].Error, "bogus") {
		t.Fatalf("rejection reason should name the field: %+v", resp.Results[0])
	}
	// GET is not ingest.
	req := httptest.NewRequest(http.MethodGet, "/ingest", nil)
	rec2 := httptest.NewRecorder()
	srv.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: %d, want 405", rec2.Code)
	}
}

// TestEventIDRulesMatchStore pins the wire-level ID validation to the
// store's: every ID the server admits must be one the store accepts,
// or a single bad ID would 500 an entire batch.
func TestEventIDRulesMatchStore(t *testing.T) {
	store, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	// "" is deliberately excluded: the wire requires an ID while the
	// store accepts "" as "unkeyed, always apply" — the wire rule is
	// strictly tighter there, which is safe.
	cases := []string{
		"plain", "with space", "uuid-0123456789abcdef", strings.Repeat("x", MaxEventIDLen),
		"bad\nnewline", "bad\ttab", "nul\x00", strings.Repeat("x", MaxEventIDLen+1), "\x7f",
	}
	for i, id := range cases {
		ev := &event.Event{Time: at, Type: event.TypeVisit, Tab: 1,
			URL: fmt.Sprintf("http://idcase%d.example/", i), Transition: event.TransTyped}
		_, err := store.ApplyBatchDedup([]string{id}, []*event.Event{ev})
		if wireOK, storeOK := ValidEventID(id), err == nil; wireOK != storeOK {
			t.Errorf("id %q: wire says valid=%v, store says valid=%v", id, wireOK, storeOK)
		}
	}
}

func TestServerBackpressureAndDrain(t *testing.T) {
	block := make(chan struct{})
	var inApply atomic.Int32
	slow := &fakeSink{apply: func(ids []string, evs []*event.Event) ([]bool, error) {
		inApply.Add(1)
		<-block
		return make([]bool, len(evs)), nil
	}}
	srv := NewServer(func(string) (Sink, func(), error) { return slow, func() {}, nil },
		ServerOptions{MaxInFlight: 1})
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	body := marshalBatch(t, wireVisit("bp-1", "http://a.example/", at))

	done := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		done <- rec.Code
	}()
	for inApply.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if !srv.Saturated() {
		t.Fatal("server should report saturated with the cap consumed")
	}
	// Second request sheds with 429 + Retry-After.
	rec, _ := postBatch(t, srv, marshalBatch(t, wireVisit("bp-2", "http://b.example/", at)))
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("overload: code=%d retry-after=%q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if srv.Stats().Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", srv.Stats().Shed)
	}

	// Drain waits for the in-flight batch, then refuses new ones.
	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()
	select {
	case <-drained:
		t.Fatal("Drain returned while a batch was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	<-drained
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight batch during drain: %d, want 200", code)
	}
	rec, _ = postBatch(t, srv, body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", rec.Code)
	}
}

type fakeSink struct {
	apply func(ids []string, evs []*event.Event) ([]bool, error)
	sync  func() error
}

func (f *fakeSink) ApplyBatchDedup(ids []string, evs []*event.Event) ([]bool, error) {
	if f.apply != nil {
		return f.apply(ids, evs)
	}
	out := make([]bool, len(evs))
	for i := range out {
		out[i] = true
	}
	return out, nil
}

func (f *fakeSink) Sync() error {
	if f.sync != nil {
		return f.sync()
	}
	return nil
}

func TestServerSinkErrorsAre500(t *testing.T) {
	boom := &fakeSink{apply: func(ids []string, evs []*event.Event) ([]bool, error) {
		return nil, errors.New("disk on fire")
	}}
	srv := NewServer(func(string) (Sink, func(), error) { return boom, func() {}, nil }, ServerOptions{})
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	rec, _ := postBatch(t, srv, marshalBatch(t, wireVisit("e1", "http://a.example/", at)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("apply error: %d, want 500", rec.Code)
	}

	// A sync failure must also fail the ack: an unsynced ack is a
	// durability lie.
	unsynced := &fakeSink{sync: func() error { return errors.New("fsync: EIO") }}
	srv = NewServer(func(string) (Sink, func(), error) { return unsynced, func() {}, nil }, ServerOptions{})
	rec, _ = postBatch(t, srv, marshalBatch(t, wireVisit("e2", "http://a.example/", at)))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("sync error: %d, want 500", rec.Code)
	}
	if srv.Stats().Errors != 1 {
		t.Fatalf("error counter = %d, want 1", srv.Stats().Errors)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	store, srv := testStoreServer(t)
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	c := NewClient(flaky.URL+"/ingest", ClientOptions{BaseBackoff: time.Millisecond, MaxAttempts: 5})
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	resp, err := c.SendEvents(context.Background(), []WireEvent{wireVisit("", "http://a.example/", at)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Applied != 1 {
		t.Fatalf("applied = %d, want 1", resp.Applied)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3 (two failures, one success)", calls.Load())
	}
	if _, ok := store.Snapshot().PageByURL("http://a.example/"); !ok {
		t.Fatal("event did not land")
	}
}

func TestClientDoesNotRetryRejections(t *testing.T) {
	var calls atomic.Int32
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer server.Close()
	c := NewClient(server.URL, ClientOptions{BaseBackoff: time.Millisecond})
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	_, err := c.SendEvents(context.Background(), []WireEvent{wireVisit("r1", "http://a.example/", at)})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d: a 400 must not be retried", calls.Load())
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	var gap atomic.Int64
	var last atomic.Int64
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := last.Swap(now); prev != 0 {
			gap.Store(now - prev)
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		json.NewEncoder(w).Encode(&Response{SchemaVersion: SchemaVersion}) //nolint:errcheck
	}))
	defer server.Close()
	c := NewClient(server.URL, ClientOptions{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if _, err := c.SendBatch(context.Background(), &Batch{SchemaVersion: SchemaVersion}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
	if gap.Load() < int64(time.Second) {
		t.Fatalf("retry came after %v, want >= the server's 1s Retry-After", time.Duration(gap.Load()))
	}
}

func TestClientSpoolsAndDrains(t *testing.T) {
	store, srv := testStoreServer(t)
	var down atomic.Bool
	down.Store(true)
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer front.Close()

	spool := t.TempDir()
	c := NewClient(front.URL+"/ingest", ClientOptions{
		MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		SpoolDir: spool,
	})
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		_, err := c.SendEvents(context.Background(),
			[]WireEvent{wireVisit("", fmt.Sprintf("http://s%d.example/", i), at.Add(time.Duration(i)*time.Second))})
		if !errors.Is(err, ErrSpooled) {
			t.Fatalf("send %d with server down: err = %v, want ErrSpooled", i, err)
		}
	}
	if c.SpoolLen() != 3 {
		t.Fatalf("spool holds %d batches, want 3", c.SpoolLen())
	}

	down.Store(false)
	n, err := c.DrainSpool(context.Background())
	if err != nil || n != 3 {
		t.Fatalf("drain: n=%d err=%v", n, err)
	}
	if c.SpoolLen() != 0 {
		t.Fatalf("spool still holds %d batches", c.SpoolLen())
	}
	for i := 0; i < 3; i++ {
		if _, ok := store.Snapshot().PageByURL(fmt.Sprintf("http://s%d.example/", i)); !ok {
			t.Fatalf("spooled batch %d never landed", i)
		}
	}
	// Draining again is a no-op; redelivery of an already-acked spool
	// entry would have been deduplicated anyway (same IDs).
	if n, err := c.DrainSpool(context.Background()); n != 0 || err != nil {
		t.Fatalf("second drain: n=%d err=%v", n, err)
	}
}

func TestClientSpoolBounded(t *testing.T) {
	server := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer server.Close()
	c := NewClient(server.URL, ClientOptions{
		MaxAttempts: 1, BaseBackoff: time.Millisecond,
		SpoolDir: t.TempDir(), SpoolLimitBytes: 400,
	})
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	var spooled, dropped int
	for i := 0; i < 8; i++ {
		_, err := c.SendEvents(context.Background(),
			[]WireEvent{wireVisit("", fmt.Sprintf("http://b%d.example/", i), at)})
		switch {
		case errors.Is(err, ErrSpooled):
			spooled++
		case errors.Is(err, ErrSpoolFull):
			dropped++
		default:
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if spooled == 0 || dropped == 0 {
		t.Fatalf("spooled=%d dropped=%d: the limit should admit some and drop the rest", spooled, dropped)
	}
}

func TestWireEventRoundTrip(t *testing.T) {
	at := time.Date(2026, 4, 1, 10, 0, 0, 0, time.UTC)
	evs := []*event.Event{
		{Time: at, Type: event.TypeVisit, Tab: 2, URL: "http://a.example/", Title: "A",
			Referrer: "http://r.example/", Transition: event.TransLink},
		{Time: at, Type: event.TypeSearch, Tab: 1, Terms: "giraffes", URL: "http://s.example/?q=g"},
		{Time: at, Type: event.TypeDownload, Tab: 1, URL: "http://d.example/f.zip",
			SavePath: "/tmp/f.zip", ContentType: "application/zip", Transition: event.TransDownload},
		{Time: at, Type: event.TypeClose, Tab: 3, URL: "http://a.example/"},
	}
	for i, ev := range evs {
		we := FromEvent(fmt.Sprintf("rt-%d", i), ev)
		back, err := we.ToEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if *back != *ev {
			t.Fatalf("event %d round-trip: %+v != %+v", i, back, ev)
		}
	}
}

package ingest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"browserprov/internal/event"
)

// memSink is an in-memory Sink that applies each ID once.
type memSink struct {
	seen    map[string]bool
	applied []*event.Event
}

func (m *memSink) ApplyBatchDedup(ids []string, evs []*event.Event) ([]bool, error) {
	fresh := make([]bool, len(ids))
	for i, id := range ids {
		if !m.seen[id] {
			m.seen[id] = true
			fresh[i] = true
			m.applied = append(m.applied, evs[i])
		}
	}
	return fresh, nil
}

func (m *memSink) Sync() error { return nil }

// passesToEvent reports whether one raw event of a batch decodes
// strictly into a WireEvent that ToEvent accepts.
func passesToEvent(raw json.RawMessage) bool {
	var we WireEvent
	d := json.NewDecoder(bytes.NewReader(raw))
	d.DisallowUnknownFields()
	if d.Decode(&we) != nil {
		return false
	}
	_, err := we.ToEvent()
	return err == nil
}

// FuzzIngestServe serves arbitrary bytes as a POST /ingest body over an
// in-memory sink. The server must never panic, and may answer 200 only
// with one result per event in which every applied or duplicate event
// passed WireEvent.ToEvent, every other event is rejected, and exactly
// the applied ones reached the sink. The seed corpus is checked in
// under testdata/fuzz/FuzzIngestServe.
func FuzzIngestServe(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		sink := &memSink{seen: make(map[string]bool)}
		var panicked any
		srv := NewServer(func(string) (Sink, func(), error) { return sink, func() {}, nil },
			ServerOptions{OnPanic: func(_ string, v any) { panicked = v }})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		if panicked != nil {
			t.Fatalf("ServeHTTP panicked: %v", panicked)
		}
		if rec.Code != http.StatusOK {
			if len(sink.applied) != 0 {
				t.Fatalf("answered %d after applying %d events", rec.Code, len(sink.applied))
			}
			return
		}
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with a malformed response %q: %v", rec.Body, err)
		}
		// The envelope decoded, so the same decode gives the raw events.
		var batch struct{ Events []json.RawMessage }
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
			t.Fatalf("server accepted an envelope that does not decode: %v", err)
		}
		if len(resp.Results) != len(batch.Events) {
			t.Fatalf("%d results for %d events", len(resp.Results), len(batch.Events))
		}
		applied := 0
		for i, r := range resp.Results {
			ok := passesToEvent(batch.Events[i])
			switch {
			case r.Status == StatusApplied && ok:
				applied++
			case r.Status == StatusDuplicate && ok, r.Status == StatusRejected && !ok:
			default:
				t.Fatalf("event %d: status %q, passes ToEvent: %v", i, r.Status, ok)
			}
		}
		if applied != resp.Applied || applied != len(sink.applied) {
			t.Fatalf("%d events applied per results, %d per the count, %d reached the sink",
				applied, resp.Applied, len(sink.applied))
		}
	})
}

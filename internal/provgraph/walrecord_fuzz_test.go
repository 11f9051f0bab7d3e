package provgraph

import (
	"reflect"
	"testing"

	"browserprov/internal/storage"
)

// FuzzDecodeWALRecord feeds arbitrary journal payloads to the decoder
// replay and replication run every WAL record through. It must never
// panic, and a record it accepts must encode back to bytes that decode
// to the same record: decode(encode(decode(b))) == decode(b). The seed
// corpus in testdata/fuzz/FuzzDecodeWALRecord holds bare and
// dedup-keyed records, whole and cut short.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		id, ev, err := decodeWALRecord(p)
		if err != nil {
			return
		}
		e := storage.NewEncoder(len(p))
		if id != "" {
			encodeDedupEventInto(e, id, ev)
		} else {
			encodeEventInto(e, ev)
		}
		id2, ev2, err := decodeWALRecord(e.Bytes())
		if err != nil {
			t.Fatalf("re-encoded record fails to decode: %v", err)
		}
		if id2 != id || !reflect.DeepEqual(ev2, ev) {
			t.Fatalf("round trip: id %q, event %+v; decoded first as id %q, event %+v", id2, ev2, id, ev)
		}
	})
}

package export

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
)

var t0 = time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC)

func buildStore(t *testing.T) *provgraph.Store {
	t.Helper()
	s, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	now := t0
	tick := func() time.Time { now = now.Add(time.Minute); return now }
	apply := func(ev *event.Event) {
		t.Helper()
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	apply(&event.Event{Time: tick(), Type: event.TypeVisit, Tab: 1, URL: "http://a.example/", Title: "A \"quoted\" title", Transition: event.TransTyped})
	apply(&event.Event{Time: tick(), Type: event.TypeSearch, Tab: 1, Terms: "rosebud", URL: "http://search.example/?q=rosebud"})
	apply(&event.Event{Time: tick(), Type: event.TypeVisit, Tab: 1, URL: "http://search.example/?q=rosebud", Title: "rosebud - Search", Referrer: "http://a.example/", Transition: event.TransLink})
	apply(&event.Event{Time: tick(), Type: event.TypeVisit, Tab: 1, URL: "http://films.example/kane", Title: "Citizen Kane", Referrer: "http://search.example/?q=rosebud", Transition: event.TransSearchResult})
	apply(&event.Event{Time: tick(), Type: event.TypeVisit, Tab: 1, URL: "http://cdn.example/ad.js", Referrer: "http://films.example/kane", Transition: event.TransEmbed})
	apply(&event.Event{Time: tick(), Type: event.TypeDownload, Tab: 1, URL: "http://films.example/poster.jpg", Referrer: "http://films.example/kane", SavePath: "/dl/poster.jpg"})
	return s
}

func TestWriteDOTWellFormed(t *testing.T) {
	s := buildStore(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, s.Snapshot(), Options{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "digraph provenance {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Fatalf("not a digraph:\n%s", out)
	}
	// Quotes in titles must be escaped.
	if strings.Contains(out, `A "quoted" title`) {
		t.Fatal("unescaped quotes in DOT output")
	}
	if !strings.Contains(out, `\"quoted\"`) {
		t.Fatal("escaped title missing")
	}
	// Search term and download render with their shapes.
	if !strings.Contains(out, "diamond") || !strings.Contains(out, "note") {
		t.Fatal("kind shapes missing")
	}
	// Embeds dropped by default.
	if strings.Contains(out, "ad.js") {
		t.Fatal("embed present despite default options")
	}
}

func TestWriteDOTIncludeEmbeds(t *testing.T) {
	s := buildStore(t)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, s.Snapshot(), Options{IncludeEmbeds: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ad.js") {
		t.Fatal("embed missing with IncludeEmbeds")
	}
}

func TestWriteDOTNeighborhood(t *testing.T) {
	s := buildStore(t)
	dls := s.Snapshot().Downloads()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, s.Snapshot(), Options{Roots: dls, Depth: 1}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "poster.jpg") {
		t.Fatal("root missing from neighborhood export")
	}
	// Depth 1 from the download: kane visit is included, the first page
	// (distance 3) is not.
	if strings.Contains(out, "a.example") {
		t.Fatalf("depth bound ignored:\n%s", out)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	s := buildStore(t)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s.Snapshot(), Options{IncludeEmbeds: true}); err != nil {
		t.Fatal(err)
	}
	var nodes, edges int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Node *JSONNode `json:"node"`
			Edge *JSONEdge `json:"edge"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Node != nil && line.Edge == nil:
			nodes++
			if line.Node.Kind == "" {
				t.Fatalf("node without kind: %+v", line.Node)
			}
		case line.Edge != nil && line.Node == nil:
			edges++
			if line.Edge.From == 0 || line.Edge.To == 0 {
				t.Fatalf("edge with zero endpoint: %+v", line.Edge)
			}
		default:
			t.Fatalf("line with neither/both: %q", sc.Text())
		}
	}
	st := s.Snapshot().Stats()
	if nodes != st.Nodes {
		t.Fatalf("exported %d nodes, store has %d", nodes, st.Nodes)
	}
	if edges != st.Edges {
		t.Fatalf("exported %d edges, store has %d", edges, st.Edges)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	s := buildStore(t)
	var a, b bytes.Buffer
	if err := WriteJSON(&a, s.Snapshot(), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, s.Snapshot(), Options{}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("JSON export not deterministic")
	}
}

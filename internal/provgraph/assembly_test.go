package provgraph

import (
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// assemblyStore builds a small edge-versioned store whose assembly state
// has every part: open tabs, a pending search and form, and pages that
// only ever loaded as inner content. It returns the store, open.
func assemblyStore(t testing.TB) *Store {
	t.Helper()
	s, err := OpenWith(t.TempDir(), Options{Mode: VersionEdges})
	if err != nil {
		t.Fatal(err)
	}
	u := func(name string) string { return "http://" + name + ".example/" }
	for i, ev := range []*event.Event{
		visit(1, u("a"), "A", "", event.TransTyped, t0),
		visit(1, u("ad"), "", u("a"), event.TransEmbed, t0.Add(time.Second)),
		visit(2, u("b"), "B", "", event.TransTyped, t0.Add(2*time.Second)),
		visit(2, u("frame"), "", u("b"), event.TransFramedLink, t0.Add(3*time.Second)),
		{Time: t0.Add(4 * time.Second), Type: event.TypeSearch, Tab: 1, Terms: "rosebud", URL: u("search")},
		{Time: t0.Add(5 * time.Second), Type: event.TypeFormSubmit, Tab: 2, Terms: "name=x", URL: u("form")},
	} {
		if err := s.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	return s
}

// assemblyPayload returns the assembly section of s's next checkpoint.
func assemblyPayload(t testing.TB, s *Store) []byte {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f, err := storage.OpenSectionFile(s.ReplicationInfo().SnapshotPath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := f.Section(secAssembly)
	if err != nil || p == nil {
		t.Fatalf("assembly section: %v (present: %v)", err, p != nil)
	}
	return append([]byte(nil), p...)
}

// TestAssemblySectionRoundTrip: the inner-only page list survives a
// checkpoint, and a section written without it (as before the list
// existed) reads as an empty list.
func TestAssemblySectionRoundTrip(t *testing.T) {
	s := assemblyStore(t)
	defer s.Close()
	p := assemblyPayload(t, s)
	asm, err := readAssemblySection(p)
	if err != nil {
		t.Fatal(err)
	}
	ad, _ := s.Snapshot().PageByURL("http://ad.example/")
	frame, _ := s.Snapshot().PageByURL("http://frame.example/")
	if len(asm.embedOnly) != 2 || asm.embedOnly[0] != ad.ID || asm.embedOnly[1] != frame.ID {
		t.Fatalf("inner-only pages = %v, want [%d %d]", asm.embedOnly, ad.ID, frame.ID)
	}
	if len(asm.tabCur) != 2 || len(asm.pendingSearch) != 1 || len(asm.pendingForm) != 1 {
		t.Fatalf("assembly = %+v", asm)
	}
	// Drop the list (a count byte and one byte per page ID): the older
	// layout.
	legacy, err := readAssemblySection(p[:len(p)-3])
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.embedOnly) != 0 || len(legacy.tabCur) != 2 {
		t.Fatalf("legacy assembly = %+v", legacy)
	}
}

// FuzzAssemblySection feeds arbitrary payloads to the assembly-section
// decoder: it must fail with an error or return state whose node IDs
// are all in 1..nextNode-1, never panic. A small store's own section
// seeds the corpus beside testdata/fuzz.
func FuzzAssemblySection(f *testing.F) {
	s := assemblyStore(f)
	f.Add(assemblyPayload(f, s))
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		asm, err := readAssemblySection(p)
		if err != nil {
			return
		}
		check := func(what string, id NodeID) {
			if id == 0 || id >= asm.nextNode {
				t.Fatalf("%s node %d outside 1..%d", what, id, asm.nextNode-1)
			}
		}
		for _, v := range asm.tabCur {
			check("tab", v)
		}
		for _, m := range []map[int]pending{asm.pendingSearch, asm.pendingForm} {
			for _, p := range m {
				check("pending", p.node)
			}
		}
		for _, v := range asm.embedOnly {
			check("inner-only page", v)
		}
		if asm.mode != VersionNodes && asm.mode != VersionEdges {
			t.Fatalf("mode %d", asm.mode)
		}
	})
}

package textindex

import (
	"fmt"
	"reflect"
	"testing"
)

// TestFrozenMatchesLoad: a frozen index must answer every read exactly
// like the map-form Load of the same stream — the frozen form is a
// storage change, not a semantics change.
func TestFrozenMatchesLoad(t *testing.T) {
	data := buildPersistIndex().Save()
	ref, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	if fz.frozen == nil {
		t.Fatal("LoadFrozen did not produce a frozen index")
	}
	if fz.NumDocs() != ref.NumDocs() || fz.NumTerms() != ref.NumTerms() {
		t.Fatalf("counts drifted: %d/%d docs, %d/%d terms",
			fz.NumDocs(), ref.NumDocs(), fz.NumTerms(), ref.NumTerms())
	}
	queries := []string{"topic", "rosebud", "citizen kane", "article shard3", "absent", "topic article kane"}
	for _, q := range queries {
		if a, b := ref.Search(q, 50), fz.Search(q, 50); !reflect.DeepEqual(a, b) {
			t.Fatalf("Search(%q) drifted:\n%v\n%v", q, a, b)
		}
		for _, wm := range []DocID{1, 50, 100, 500} {
			if a, b := ref.SearchUnder(q, 10, wm), fz.SearchUnder(q, 10, wm); !reflect.DeepEqual(a, b) {
				t.Fatalf("SearchUnder(%q, %d) drifted:\n%v\n%v", q, wm, a, b)
			}
			if ref.DocFreqUnder(q, wm) != fz.DocFreqUnder(q, wm) {
				t.Fatalf("DocFreqUnder(%q, %d) drifted", q, wm)
			}
		}
		if ref.DocFreq(q) != fz.DocFreq(q) {
			t.Fatalf("DocFreq(%q) drifted", q)
		}
	}
	if a, b := ref.Terms(25), fz.Terms(25); !reflect.DeepEqual(a, b) {
		t.Fatalf("Terms drifted:\n%v\n%v", a, b)
	}
	if a, b := ref.NumDocsUnder(100), fz.NumDocsUnder(100); a != b {
		t.Fatalf("NumDocsUnder drifted: %d vs %d", a, b)
	}
}

// TestFrozenThaw: forward-direction reads and writes thaw the frozen
// form transparently; behaviour after the thaw matches a map-form index
// that took the same steps.
func TestFrozenThaw(t *testing.T) {
	data := buildPersistIndex().Save()
	ref, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	// TermsOf forces the forward maps (and therefore the thaw).
	fz, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := ref.TermsOf(42), fz.TermsOf(42); !reflect.DeepEqual(a, b) {
		t.Fatalf("TermsOf drifted: %v vs %v", a, b)
	}
	if fz.frozen != nil {
		t.Fatal("forward read did not thaw the frozen form")
	}
	// Add thaws and keeps growing.
	fz2, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	ref.Add(500, "fresh growth after restart")
	fz2.Add(500, "fresh growth after restart")
	ref.Add(42, "rosebud again") // stacked re-add onto a frozen-loaded doc
	fz2.Add(42, "rosebud again")
	for _, q := range []string{"fresh", "growth topic", "rosebud", "kane"} {
		if a, b := ref.Search(q, 20), fz2.Search(q, 20); !reflect.DeepEqual(a, b) {
			t.Fatalf("post-thaw Add diverged on %q:\n%v\n%v", q, a, b)
		}
	}
	// SaveUnder round-trips through the thaw.
	if a, b := ref.SaveUnder(200), fz2.SaveUnder(200); !reflect.DeepEqual(a, b) {
		t.Fatal("SaveUnder diverged after thaw")
	}
}

// TestFrozenTakesNewDocsAsDelta: documents added past the frozen
// stream's highest doc leave it frozen, and every read merges them in
// exactly as a map-form index that took the same steps answers.
func TestFrozenTakesNewDocsAsDelta(t *testing.T) {
	data := buildPersistIndex().Save()
	ref, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := LoadFrozen(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{ref, fz} {
		ix.Add(500, "fresh growth after restart rosebud")
		ix.Add(501, "zanzibar kane")
		ix.Add(501, "stacked onto a delta doc")
	}
	if fz.frozen == nil {
		t.Fatal("adding docs past the frozen stream thawed it")
	}
	for _, q := range []string{"fresh", "growth topic", "rosebud", "kane", "zanzibar stacked"} {
		for _, cut := range []DocID{42, 500, ^DocID(0)} {
			if a, b := ref.SearchUnder(q, 20, cut), fz.SearchUnder(q, 20, cut); !reflect.DeepEqual(a, b) {
				t.Fatalf("SearchUnder(%q, %d) diverged:\n%v\n%v", q, cut, a, b)
			}
		}
	}
	for _, term := range []string{"rosebud", "kane", "zanzibar", "absent"} {
		if a, b := ref.DocFreq(term), fz.DocFreq(term); a != b {
			t.Fatalf("DocFreq(%q) = %d, want %d", term, b, a)
		}
		if a, b := ref.DocFreqUnder(term, 500), fz.DocFreqUnder(term, 500); a != b {
			t.Fatalf("DocFreqUnder(%q) = %d, want %d", term, b, a)
		}
	}
	if a, b := ref.NumTerms(), fz.NumTerms(); a != b {
		t.Fatalf("NumTerms = %d, want %d", b, a)
	}
	if a, b := ref.Terms(0), fz.Terms(0); !reflect.DeepEqual(a, b) {
		t.Fatalf("Terms diverged:\n%v\n%v", a, b)
	}
	// A save thaws, merging the delta behind the frozen lists.
	if a, b := ref.SaveUnder(^DocID(0)), fz.SaveUnder(^DocID(0)); !reflect.DeepEqual(a, b) {
		t.Fatal("SaveUnder diverged after a delta thaw")
	}
}

// TestFrozenRejectsCorrupt: the up-front validation walk must catch what
// Load catches — later streaming decodes assume a clean stream.
func TestFrozenRejectsCorrupt(t *testing.T) {
	data := buildPersistIndex().Save()
	if _, err := LoadFrozen(data[:len(data)/3]); err == nil {
		t.Fatal("truncated payload loaded without error")
	}
	if _, err := LoadFrozen([]byte{0xFF, 0x01}); err == nil {
		t.Fatal("bad version loaded without error")
	}
	if _, err := LoadFrozen(nil); err == nil {
		t.Fatal("empty payload loaded without error")
	}
}

func BenchmarkLoadFrozen(b *testing.B) {
	ix := New()
	for i := 1; i <= 20000; i++ {
		ix.Add(DocID(i), fmt.Sprintf("topic %d article citizen kane shard%d word%d", i%97, i%31, i%503))
	}
	data := ix.Save()
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Load(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadFrozen(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package pql

import "testing"

// FuzzPQLParse runs Parse over arbitrary source text. It must never
// panic, and a query it accepts must print to canonical source that
// parses again and prints the same. The seed corpus in
// testdata/fuzz/FuzzPQLParse holds every query form the other tests use,
// valid and invalid, and truncations of them.
func FuzzPQLParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", src, printed, err)
		}
		if again := q2.String(); again != printed {
			t.Fatalf("Parse(%q) printed %q, which prints back as %q", src, printed, again)
		}
	})
}

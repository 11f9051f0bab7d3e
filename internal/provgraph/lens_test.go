package provgraph

import (
	"testing"
	"time"

	"browserprov/internal/event"
)

// buildRedirectChain ingests A -(link)-> short -(302)-> target plus an
// embedded resource on target, and returns the store.
func buildRedirectChain(t *testing.T) *Store {
	t.Helper()
	s := openStore(t, t.TempDir())
	t.Cleanup(func() { s.Close() })
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://short.example/r", "", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
		visit(1, "http://target.example/", "Target", "http://short.example/r", event.TransRedirectTemporary, t0.Add(time.Minute+time.Second)),
		visit(1, "http://ads.example/banner", "", "http://target.example/", event.TransEmbed, t0.Add(time.Minute+2*time.Second)),
	)
	return s
}

func nodeURL(s *Store, id NodeID) string {
	n, _ := s.NodeByID(id)
	return n.URL
}

func TestLensSplicesRedirects(t *testing.T) {
	s := buildRedirectChain(t)
	lens := s.Snapshot().Lens()
	pa, _ := s.PageByURL("http://a.example/")
	va := s.VisitsOfPage(pa.ID)[0]
	outs := lens.Out(va)
	if len(outs) != 1 {
		t.Fatalf("lens out = %d edges, want 1", len(outs))
	}
	if got := nodeURL(s, outs[0]); got != "http://target.example/" {
		t.Fatalf("lens successor = %s, want target (redirect spliced)", got)
	}
	// Raw view still shows the intermediate hop.
	raw := s.Out(va)
	if len(raw) != 1 || nodeURL(s, raw[0]) != "http://short.example/r" {
		t.Fatalf("raw successor = %v", raw)
	}
	// One lens, and one memo, per snapshot.
	if sn := s.Snapshot(); sn.Lens() != sn.Lens() {
		t.Fatal("lens must be cached per snapshot")
	}
}

func TestLensInSplicesRedirectSources(t *testing.T) {
	s := buildRedirectChain(t)
	lens := s.Snapshot().Lens()
	pt, _ := s.PageByURL("http://target.example/")
	vt := s.VisitsOfPage(pt.ID)[0]
	ins := lens.In(vt)
	if len(ins) != 1 {
		t.Fatalf("lens in = %d edges, want 1", len(ins))
	}
	if got := nodeURL(s, ins[0]); got != "http://a.example/" {
		t.Fatalf("lens predecessor = %s, want a.example", got)
	}
}

func TestLensDropsEmbeds(t *testing.T) {
	s := buildRedirectChain(t)
	lens := s.Snapshot().Lens()
	pt, _ := s.PageByURL("http://target.example/")
	vt := s.VisitsOfPage(pt.ID)[0]
	for _, m := range lens.Out(vt) {
		if nodeURL(s, m) == "http://ads.example/banner" {
			t.Fatal("embedded content visible through lens")
		}
	}
	// Raw view keeps it (lineage queries need it).
	found := false
	for _, m := range s.Out(vt) {
		if nodeURL(s, m) == "http://ads.example/banner" {
			found = true
		}
	}
	if !found {
		t.Fatal("embed edge missing from raw view")
	}
}

func TestLensMultiHopRedirect(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://r1.example/", "", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
		visit(1, "http://r2.example/", "", "http://r1.example/", event.TransRedirectPermanent, t0.Add(time.Minute+time.Second)),
		visit(1, "http://final.example/", "Final", "http://r2.example/", event.TransRedirectTemporary, t0.Add(time.Minute+2*time.Second)),
	)
	lens := s.Snapshot().Lens()
	pa, _ := s.PageByURL("http://a.example/")
	va := s.VisitsOfPage(pa.ID)[0]
	outs := lens.Out(va)
	if len(outs) != 1 || nodeURL(s, outs[0]) != "http://final.example/" {
		t.Fatalf("multi-hop splice = %v", urlsOf(s, outs))
	}
	pf, _ := s.PageByURL("http://final.example/")
	vf := s.VisitsOfPage(pf.ID)[0]
	ins := lens.In(vf)
	if len(ins) != 1 || nodeURL(s, ins[0]) != "http://a.example/" {
		t.Fatalf("multi-hop In splice = %v", urlsOf(s, ins))
	}
}

func urlsOf(s *Store, ids []NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = nodeURL(s, id)
	}
	return out
}

func TestLensNoRedirectsIsIdentity(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	mustApply(t, s,
		visit(1, "http://a.example/", "A", "", event.TransTyped, t0),
		visit(1, "http://b.example/", "B", "http://a.example/", event.TransLink, t0.Add(time.Minute)),
	)
	lens := s.Snapshot().Lens()
	pa, _ := s.PageByURL("http://a.example/")
	va := s.VisitsOfPage(pa.ID)[0]
	raw, lensed := s.Out(va), lens.Out(va)
	if len(raw) != len(lensed) || raw[0] != lensed[0] {
		t.Fatalf("lens differs on redirect-free graph: raw %v lens %v", raw, lensed)
	}
}

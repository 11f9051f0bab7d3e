package main

import (
	"testing"

	"browserprov"
	"browserprov/internal/event"
	"browserprov/internal/pql"
	"browserprov/internal/provgraph"
)

// Each output check passes a good result and fails the same result with
// one thing corrupted: a check that cannot fail proves nothing.
//
//	cd perfbench && go test .

func TestChecksFailOnCorruption(t *testing.T) {
	rec := newEventRecord()
	shown := map[int]string{}
	for _, ev := range []*event.Event{
		{Type: event.TypeVisit, Tab: 1, URL: "http://forum.example/"},
		{Type: event.TypeVisit, Tab: 1, URL: "http://forum.example/t1", Referrer: "http://forum.example/"},
		{Type: event.TypeVisit, Tab: 1, URL: "http://short.example/x", Referrer: "http://forum.example/t1"},
		{Type: event.TypeVisit, Tab: 1, URL: "http://bad.example/", Referrer: "http://short.example/x"},
		{Type: event.TypeDownload, Tab: 1, URL: "http://cdn.example/a.exe", Referrer: "http://bad.example/"},
	} {
		rec.observe(ev, shown)
	}
	node := func(kind provgraph.NodeKind, url string) provgraph.Node { return provgraph.Node{Kind: kind, URL: url} }
	lineage := browserprov.Lineage{Found: true, Path: []provgraph.Node{
		node(kindDownload, "http://cdn.example/a.exe"),
		node(kindVisit, "http://bad.example/"),
		node(kindVisit, "http://forum.example/t1"), // the redirect hop the lens skips
		node(kindVisit, "http://forum.example/"),
	}}
	lineage.Path[0].Text = "/dl/a.exe"
	brokenLineage := browserprov.Lineage{Found: true, Path: append([]provgraph.Node{}, lineage.Path...)}
	brokenLineage.Path[1].URL = "http://elsewhere.example/"
	shortLineage := browserprov.Lineage{Found: true, Path: lineage.Path[:2]}
	pqlPath := pql.Result{IsPath: true, Found: true, Nodes: lineage.Path}
	pqlSet := pql.Result{Nodes: []provgraph.Node{lineage.Path[0], lineage.Path[0]}}
	wrongKind := pql.Result{Nodes: []provgraph.Node{lineage.Path[0], lineage.Path[1]}}
	hits := []browserprov.PageHit{{URL: "http://films.example/kane", Score: 2}, {URL: "http://x.example/", Score: 1}}
	terms := []browserprov.TermSuggestion{{Term: "flower", Weight: 3}, {Term: "soil", Weight: 1}}
	wine := []browserprov.TimeHit{{URL: "http://wine.example/lafite", Score: 1}}
	counts := kindCounts{Pages: 10, Visits: 20, Downloads: 2, Terms: 3}

	cases := []struct {
		name      string
		good, bad error
	}{
		{"ranked/order", checkRanked([]float64{3, 2, 2, 1}, 10), checkRanked([]float64{3, 1, 2}, 10)},
		{"ranked/k", checkRanked([]float64{3, 2}, 2), checkRanked([]float64{3, 2, 1}, 2)},
		{"rosebud", checkRosebud(hits, "http://films.example/kane"), checkRosebud(hits[1:], "http://films.example/kane")},
		{"gardener", checkGardener(terms, []string{"flower", "gardening"}), checkGardener(terms[1:], []string{"flower", "gardening"})},
		{"wine", checkWine(wine, "http://wine.example/lafite"), checkWine(nil, "http://wine.example/lafite")},
		{"malware", checkMalware(lineage, "http://forum.example/"), checkMalware(shortLineage, "http://forum.example/")},
		{"lineage-edges", checkLineage(lineage, rec), checkLineage(brokenLineage, rec)},
		{"lineage-found", checkLineageFound(lineage, "/dl/a.exe"),
			checkLineageFound(browserprov.Lineage{Found: true, Path: lineage.Path[:1]}, "/dl/a.exe")},
		{"pql-set", checkPQLSet(pqlSet, kindDownload, 20), checkPQLSet(wrongKind, kindDownload, 20)},
		{"pql-set/limit", checkPQLSet(pqlSet, kindDownload, 2), checkPQLSet(pqlSet, kindDownload, 1)},
		{"pql-path", checkPQLPath(pqlPath, "/dl/a.exe", rec), checkPQLPath(pql.Result{IsPath: true, Found: true, Nodes: brokenLineage.Path}, "/dl/a.exe", rec)},
		{"pql-path/source", checkPQLPath(pqlPath, "/dl/a.exe", rec), checkPQLPath(pqlPath, "/dl/b.exe", rec)},
		{"dag", checkDAG(nil), checkDAG([]provgraph.NodeID{4, 7, 4})},
		{"counts", checkCounts(kindCounts{Pages: 11, Visits: 23, Downloads: 2, Terms: 3}, counts, 1, 3),
			checkCounts(kindCounts{Pages: 11, Visits: 22, Downloads: 2, Terms: 3}, counts, 1, 3)},
		{"all-duplicate", checkAllDuplicate(0, 64, 64), checkAllDuplicate(1, 63, 64)},
		{"proxy-visits", checkProxyVisits(map[string]int{"http://o/p/1": 2}, map[string]int{"http://o/p/1": 2}),
			checkProxyVisits(map[string]int{"http://o/p/1": 2}, map[string]int{"http://o/p/1": -1})},
		{"tallies", checkTallies(map[string]int{"t0001": 5}, map[string]int{"t0001": 5}),
			checkTallies(map[string]int{"t0001": 4}, map[string]int{"t0001": 5})},
		{"own-hosts", checkOwnHosts("t0001", []string{"http://t0001-s2.example/a"}),
			checkOwnHosts("t0001", []string{"http://t0001-s2.example/a", "http://t0002-s0.example/b"})},
	}
	for _, c := range cases {
		if c.good != nil {
			t.Errorf("%s: good result rejected: %v", c.name, c.good)
		}
		if c.bad == nil {
			t.Errorf("%s: corrupted result passed", c.name)
		}
	}
}

// TestTenantStreamsStayOnOwnHosts: every URL a tenant generator emits is
// on that tenant's hosts, so the isolation check is sound.
func TestTenantStreamsStayOnOwnHosts(t *testing.T) {
	vocab := vocabulary(1, 50)
	for i := 0; i < 20; i++ {
		st := newTenantState(1, i, vocab)
		_, evs := st.next(200)
		var urls []string
		for _, ev := range evs {
			urls = append(urls, ev.URL)
			if ev.Referrer != "" {
				urls = append(urls, ev.Referrer)
			}
		}
		if err := checkOwnHosts(st.id, urls); err != nil {
			t.Fatal(err)
		}
	}
}

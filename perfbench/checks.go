package main

import (
	"fmt"
	"net/url"
	"strings"

	"browserprov"
	"browserprov/internal/event"
	"browserprov/internal/pql"
	"browserprov/internal/provgraph"
)

// Output checks. Each takes a result and the truth it is judged against —
// the scenario injectors' ground truth, the harness's own record of the
// events it generated and sent, or a property every answer must have —
// and returns nil or what is wrong. checks_test.go corrupts one result
// per check and shows it fails.

const (
	kindVisit    = provgraph.KindVisit
	kindDownload = provgraph.KindDownload
	kindTerm     = provgraph.KindSearchTerm
)

func pageScores(hits []browserprov.PageHit) []float64 {
	s := make([]float64, len(hits))
	for i, h := range hits {
		s[i] = h.Score
	}
	return s
}

func timeScores(hits []browserprov.TimeHit) []float64 {
	s := make([]float64, len(hits))
	for i, h := range hits {
		s[i] = h.Score
	}
	return s
}

func termWeights(ts []browserprov.TermSuggestion) []float64 {
	s := make([]float64, len(ts))
	for i, t := range ts {
		s[i] = t.Weight
	}
	return s
}

// checkRanked: at most k results, ordered by non-increasing score.
func checkRanked(scores []float64, k int) error {
	if len(scores) > k {
		return fmt.Errorf("%d results for k=%d", len(scores), k)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1] {
			return fmt.Errorf("result %d scores %g above result %d's %g", i, scores[i], i-1, scores[i-1])
		}
	}
	return nil
}

// checkRosebud: §2.1 — the film page is in the search's top k.
func checkRosebud(hits []browserprov.PageHit, expected string) error {
	for _, h := range hits {
		if h.URL == expected {
			return nil
		}
	}
	return fmt.Errorf("rosebud: %s not in the top %d", expected, len(hits))
}

// checkGardener: §2.2 — a gardening term is among the suggestions.
func checkGardener(ts []browserprov.TermSuggestion, want []string) error {
	for _, t := range ts {
		for _, w := range want {
			if t.Term == w {
				return nil
			}
		}
	}
	return fmt.Errorf("gardener: none of %v in %d suggestions", want, len(ts))
}

// checkWine: §2.3 — the wine page open beside the plane tickets is a hit.
func checkWine(hits []browserprov.TimeHit, target string) error {
	for _, h := range hits {
		if h.URL == target {
			return nil
		}
	}
	return fmt.Errorf("wine: %s not among %d time-context hits", target, len(hits))
}

// checkMalware: §2.4 — the lineage reaches the recognizable forum.
func checkMalware(lin browserprov.Lineage, ancestor string) error {
	if !lin.Found || len(lin.Path) == 0 || lin.Path[len(lin.Path)-1].URL != ancestor {
		return fmt.Errorf("malware: lineage (found=%v, %d nodes) does not end at %s", lin.Found, len(lin.Path), ancestor)
	}
	return nil
}

// checkDAG: the store's provenance graph has no cycle.
func checkDAG(cycle []provgraph.NodeID) error {
	if len(cycle) > 0 {
		return fmt.Errorf("provenance graph has a cycle through %v", cycle)
	}
	return nil
}

// eventRecord is the harness's own record of the provenance the events
// it generated imply: for each object (a URL, or a search term), the
// objects it was reached from.
type eventRecord struct{ from map[string]map[string]bool }

func newEventRecord() *eventRecord { return &eventRecord{from: map[string]map[string]bool{}} }

func (rec *eventRecord) add(child, parent string) {
	if child == "" || parent == "" {
		return
	}
	m := rec.from[child]
	if m == nil {
		m = map[string]bool{}
		rec.from[child] = m
	}
	m[parent] = true
}

// record builds the eventRecord of g's events: a visit or download comes
// from its referrer, a search's results page from its term, and a term
// from the page its tab showed when it was issued.
func (g *browsing) record() *eventRecord {
	rec := newEventRecord()
	shown := map[int]string{} // tab -> URL on display
	for _, ev := range g.events {
		rec.observe(ev, shown)
	}
	return rec
}

func (rec *eventRecord) observe(ev *event.Event, shown map[int]string) {
	switch ev.Type {
	case event.TypeVisit:
		rec.add(ev.URL, ev.Referrer)
		shown[ev.Tab] = ev.URL
	case event.TypeDownload:
		rec.add(ev.URL, ev.Referrer)
	case event.TypeSearch:
		rec.add("term:"+ev.Terms, shown[ev.Tab])
		rec.add(ev.URL, "term:"+ev.Terms)
	case event.TypeTabOpen:
		shown[ev.Tab] = ev.URL
	}
}

// objectKey names a lineage node the way eventRecord does.
func objectKey(n browserprov.Node) string {
	if n.Kind == kindTerm {
		return "term:" + n.Text
	}
	return n.URL
}

// checkLineage: every step of a lineage path — a node and the one after
// it, which it was reached from — is a provenance step of the record.
// A step may skip the redirect hop the query's lens collapses, so a
// grandparent in the record also counts.
func checkLineage(lin browserprov.Lineage, rec *eventRecord) error {
	for i := 0; i+1 < len(lin.Path); i++ {
		c, p := objectKey(lin.Path[i]), objectKey(lin.Path[i+1])
		if c == p && lin.Path[i].Kind == kindVisit {
			continue // a visit and the earlier visit of the same page
		}
		ok := rec.from[c][p]
		for mid := range rec.from[c] {
			ok = ok || rec.from[mid][p]
		}
		if !ok {
			return fmt.Errorf("lineage step %q <- %q is not in the generated events", c, p)
		}
	}
	return nil
}

// checkLineageFound: a lineage asked for a download the store holds (the
// loops draw save paths from the store's own download nodes) is found,
// and reaches at least one node the download came from.
func checkLineageFound(lin browserprov.Lineage, save string) error {
	if !lin.Found || len(lin.Path) < 2 {
		return fmt.Errorf("lineage of stored download %s: found=%v, %d nodes", save, lin.Found, len(lin.Path))
	}
	return nil
}

// checkPQLSet: a set query filtered by "where kind = K limit n" returns
// at most n nodes, every one of kind K.
func checkPQLSet(res pql.Result, kind provgraph.NodeKind, limit int) error {
	if res.IsPath || len(res.Nodes) > limit {
		return fmt.Errorf("pql set query: path=%v, %d nodes for limit %d", res.IsPath, len(res.Nodes), limit)
	}
	for _, n := range res.Nodes {
		if n.Kind != kind {
			return fmt.Errorf("pql: %s node %d in a 'kind = %s' result", n.Kind, n.ID, kind)
		}
	}
	return nil
}

// checkPQLPath: "first ancestor of download(save)" returns a path that
// starts at that download and whose every step is a provenance step of
// the record.
func checkPQLPath(res pql.Result, save string, rec *eventRecord) error {
	if !res.IsPath {
		return fmt.Errorf("pql path query for %s returned a set", save)
	}
	if !res.Found {
		return nil // no recognizable ancestor is an answer, not an error
	}
	if len(res.Nodes) == 0 || res.Nodes[0].Kind != kindDownload || res.Nodes[0].Text != save {
		return fmt.Errorf("pql path for %s does not start at that download", save)
	}
	return checkLineage(browserprov.Lineage{Found: true, Path: res.Nodes}, rec)
}

// kindCounts are a store's node counts by kind.
type kindCounts struct{ Pages, Visits, Downloads, Bookmarks, Terms, Forms int }

func countKinds(sn *provgraph.Snapshot) kindCounts {
	var c kindCounts
	sn.NodesSince(0, func(n provgraph.Node) bool {
		switch n.Kind {
		case provgraph.KindPage:
			c.Pages++
		case provgraph.KindVisit:
			c.Visits++
		case provgraph.KindDownload:
			c.Downloads++
		case provgraph.KindBookmark:
			c.Bookmarks++
		case provgraph.KindSearchTerm:
			c.Terms++
		case provgraph.KindFormEntry:
			c.Forms++
		}
		return true
	})
	return c
}

// checkCounts: the daemon's store holds exactly what an in-process apply
// of the acknowledged events holds, plus one page per distinct proxied
// URL and one visit per proxied fetch.
func checkCounts(got, ref kindCounts, proxiedPages, proxiedVisits int) error {
	want := ref
	want.Pages += proxiedPages
	want.Visits += proxiedVisits
	if got != want {
		return fmt.Errorf("store counts %+v, want %+v (in-process apply %+v + %d proxied pages, %d proxied visits)",
			got, want, ref, proxiedPages, proxiedVisits)
	}
	return nil
}

// checkAllDuplicate: a batch re-sent verbatim is acknowledged as all
// duplicates and applies nothing.
func checkAllDuplicate(applied, duplicates, sent int) error {
	if applied != 0 || duplicates != sent {
		return fmt.Errorf("re-sent batch of %d: applied %d, duplicates %d", sent, applied, duplicates)
	}
	return nil
}

// checkProxyVisits: every page fetched through the proxy is a page with
// one visit per fetch. visits maps each fetched URL to the store's visit
// count of its page (-1: no such page).
func checkProxyVisits(fetched, visits map[string]int) error {
	for u, n := range fetched {
		if visits[u] != n {
			return fmt.Errorf("proxied %s fetched %d times, store has %d visits", u, n, visits[u])
		}
	}
	return nil
}

// checkTallies: every tenant's store holds as many visits as the harness
// applied to it.
func checkTallies(got, want map[string]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tenants counted, %d expected", len(got), len(want))
	}
	for t, n := range want {
		if got[t] != n {
			return fmt.Errorf("tenant %s has %d visits, %d applied", t, got[t], n)
		}
	}
	return nil
}

// checkOwnHosts: every URL a tenant's query returned is on one of that
// tenant's own hosts.
func checkOwnHosts(tenant string, urls []string) error {
	for _, s := range urls {
		u, err := url.Parse(s)
		if err != nil || !strings.HasPrefix(u.Hostname(), tenant+"-") {
			return fmt.Errorf("tenant %s got a hit outside its stream: %s", tenant, s)
		}
	}
	return nil
}

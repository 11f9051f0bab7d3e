package main

import (
	"time"

	"browserprov/internal/browser"
	"browserprov/internal/event"
	"browserprov/internal/scenario"
	"browserprov/internal/session"
	"browserprov/internal/webgen"
)

// corpusSeed generates the corpus every run works on — the synthetic web,
// the simulated user's browsing, the tenants' vocabulary and streams — so
// that runs with different -seed values measure the same stores. The
// -seed of a run draws the operation stream over it: which queries, which
// tenants, the uploader's event IDs and where in its stream it starts.
const corpusSeed = 1

// truth is the injectors' ground truth for the four §2 scenarios.
type truth struct {
	rosebudQuery, rosebudExpected string
	gardenerQuery                 string
	gardenerTerms                 []string
	wineQuery, wineAnchor         string
	wineTarget                    string
	malwareSave, malwareAncestor  string
}

// browsing is one simulated user's event stream over a synthetic web.
type browsing struct {
	web    *webgen.Web
	events []*event.Event
	truth  truth
}

// genBrowsing simulates days of browsing by the default user profile on
// the web of seed and, with scenarios set, injects the paper's four §2
// scenarios over the last week, on tabs simulated browsing never uses.
func genBrowsing(seed int64, days int, scenarios bool) (*browsing, error) {
	g := &browsing{web: webgen.Generate(webgen.Config{Seed: seed})}
	sink := func(ev *event.Event) error {
		g.events = append(g.events, ev)
		return nil
	}
	b := browser.New(g.web, time.Date(2008, 11, 1, 9, 0, 0, 0, time.UTC), sink)
	prof := session.Default(seed)
	prof.Days = days
	if _, err := session.NewRunner(g.web, b, prof).Run(); err != nil {
		return nil, err
	}
	if !scenarios {
		return g, nil
	}
	end := b.Clock()
	rb, err := scenario.InjectRosebud(end.Add(-96*time.Hour), 9001, sink)
	if err != nil {
		return nil, err
	}
	gd, err := scenario.InjectGardener(end.Add(-72*time.Hour), 9101, sink)
	if err != nil {
		return nil, err
	}
	wn, err := scenario.InjectWine(end.Add(-7*24*time.Hour), 9201, sink)
	if err != nil {
		return nil, err
	}
	mw, err := scenario.InjectMalware(end.Add(-48*time.Hour), 9301, sink)
	if err != nil {
		return nil, err
	}
	g.truth = truth{
		rosebudQuery: rb.Query, rosebudExpected: rb.Expected,
		gardenerQuery: gd.Query, gardenerTerms: gd.AssociatedTerms,
		wineQuery: wn.Query, wineAnchor: wn.Anchor, wineTarget: wn.Expected,
		malwareSave: mw.SavePath, malwareAncestor: mw.RecognizableAncestor,
	}
	return g, nil
}

// batches cuts events into consecutive batches of at most n.
func batches(evs []*event.Event, n int) [][]*event.Event {
	var out [][]*event.Event
	for len(evs) > 0 {
		k := min(n, len(evs))
		out = append(out, evs[:k])
		evs = evs[k:]
	}
	return out
}

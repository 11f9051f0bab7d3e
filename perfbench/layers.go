package main

import (
	"runtime"

	"browserprov/internal/graph"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
	"browserprov/internal/storage"
	"browserprov/internal/textindex"
)

// The traced run times layers below the query API by calling their
// public functions from here, with the inputs the query itself uses:
// the program has no spans of its own yet. These replays run right after
// the query they mirror and are recorded as its children.

// Query defaults the replays mirror (query.Options zero value).
const (
	textSeedLimit = 200 // text hits a contextual search seeds from
	expandDecay   = 0.5
	expandDepth   = 3
	expandNodes   = 5000
)

// textSection is the checkpoint section tag of the text-index postings
// (provgraph's secText); its payload is a uvarint watermark followed by
// the postings textindex.LoadFrozen serves from.
const textSection = 9

// replaySearch times textindex.SearchUnder for q at the View's cut under
// parent, with N = the postings of q's terms at that cut, and — when
// expand is set — graph.ExpandArena over the seeds those hits give, as
// the contextual search's second stage does.
func replaySearch(t *tracer, v *query.View, q string, parent int, expand bool) {
	sn := v.Snapshot()
	ix := v.Engine().Index()
	cut := textindex.DocID(sn.MaxNodeID())
	postings := 0
	for _, term := range textindex.Tokenize(q) {
		postings += ix.DocFreqUnder(term, cut)
	}
	sp := t.begin("textindex.SearchUnder", parent)
	hits := ix.SearchUnder(q, textSeedLimit, cut)
	t.end(sp, float64(postings))
	if !expand {
		return
	}
	a := graph.GetArena(int(sn.MaxNodeID()) + 1)
	defer a.Release()
	a.ResetExpand(a.NodeCap())
	for _, h := range hits {
		id := provgraph.NodeID(h.Doc)
		n, ok := sn.NodeByID(id)
		if !ok {
			continue
		}
		if n.Kind != provgraph.KindPage {
			a.SeedExpand(id, h.Score)
			continue
		}
		for _, vis := range sn.VisitsOfPage(id) {
			a.SeedExpand(vis, h.Score)
		}
	}
	sp = t.begin("graph.ExpandArena", parent)
	graph.ExpandArenaPar(sn.Lens(), a, graph.Undirected, expandDecay, expandDepth, expandNodes, runtime.GOMAXPROCS(0), nil)
	t.end(sp, 0)
}

// replayColdOpen times storage.OpenSectionFile on a store's current
// checkpoint and textindex.LoadFrozen on the postings it carries — the
// two steps a cold open's mmap load and text warm start consist of.
func replayColdOpen(t *tracer, dir string) error {
	path, err := checkpointPath(dir)
	if err != nil {
		return err
	}
	sp := t.begin("storage.OpenSectionFile", -1)
	f, err := storage.OpenSectionFile(path, true)
	t.end(sp, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := f.Section(textSection)
	if err != nil || p == nil {
		return err
	}
	d := storage.NewDecoder(p)
	if _, err := d.Uvarint(); err != nil {
		return err
	}
	payload, err := d.Raw(d.Remaining())
	if err != nil {
		return err
	}
	sp = t.begin("textindex.LoadFrozen", -1)
	_, err = textindex.LoadFrozen(payload)
	t.end(sp, 0)
	return err
}

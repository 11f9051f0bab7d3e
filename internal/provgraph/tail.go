package provgraph

import (
	"maps"
	"slices"
	"sort"
)

// tail is the unsealed delta over the layers below it: the nodes created
// since its limit, plus copies of the lower nodes, adjacency rows and
// visit lists it has changed. The store's write side holds one live tail
// over the current sealed epoch (or over the capture a reseal is
// flattening); every Snapshot holds a frozen one. A lower entry is dirty
// exactly when the tail holds a copy of it.
type tail struct {
	// limit is the highest node ID the layers below cover; the tail's
	// own nodes are limit+1 onward, stored densely.
	limit NodeID
	// nodes[i] is node limit+1+i; Kind 0 marks a retention gap.
	nodes []Node
	// copied holds lower nodes mutated since the limit (a close, a
	// first title, an edge-mode page's earlier open). Each put stores a
	// fresh copy, so a frozen tail can share the pointers.
	copied map[NodeID]*Node

	outE   tailRows[Edge]
	inE    tailRows[Edge]
	outIDs tailRows[NodeID] // parallel adjacency for graph.Graph
	inIDs  tailRows[NodeID]
	visits tailRows[NodeID] // per-page visit lists

	// Lookups over the tail's own nodes; the latest instance wins.
	url      map[string]NodeID // page URL -> page
	term     map[string]NodeID // search term -> latest instance
	save     map[string]NodeID // download save path -> download
	bookmark map[string]NodeID // bookmarked URL -> latest bookmark
	dls      []NodeID          // downloads, creation order

	// open is the tail's visits sorted by (open time, id): set when the
	// tail is frozen into a snapshot, nil on the live write side.
	open []openEnt
}

// tailRows is one per-node column of a tail (an adjacency direction or
// the visit lists): a dense slab for the tail's own nodes, so the ingest
// hot path appends without hashing, and a map for lower nodes whose row
// the tail has copied.
type tailRows[T any] struct {
	dense [][]T // row of node limit+1+i
	lower map[NodeID][]T
}

func newTail(limit NodeID) *tail {
	return &tail{
		limit:    limit,
		copied:   make(map[NodeID]*Node),
		outE:     tailRows[Edge]{lower: make(map[NodeID][]Edge)},
		inE:      tailRows[Edge]{lower: make(map[NodeID][]Edge)},
		outIDs:   tailRows[NodeID]{lower: make(map[NodeID][]NodeID)},
		inIDs:    tailRows[NodeID]{lower: make(map[NodeID][]NodeID)},
		visits:   tailRows[NodeID]{lower: make(map[NodeID][]NodeID)},
		url:      make(map[string]NodeID),
		term:     make(map[string]NodeID),
		save:     make(map[string]NodeID),
		bookmark: make(map[string]NodeID),
	}
}

// node returns id's node as the tail records it, nil for a gap or an
// ID past the tail. hit is false when the tail holds no entry for id and
// the layers below answer. Callers must not write through n: the write
// side changes a node only through put. Lookups of sealed nodes are the
// query hot path, so a tail that copied none returns without hashing.
func (t *tail) node(id NodeID) (n *Node, hit bool) {
	if id > t.limit {
		if i := int(id - t.limit - 1); i < len(t.nodes) && t.nodes[i].Kind != 0 {
			return &t.nodes[i], true
		}
		return nil, true
	}
	if len(t.copied) == 0 {
		return nil, false
	}
	n, hit = t.copied[id]
	return n, hit
}

// put records a changed copy of node n.
func (t *tail) put(n Node) {
	if n.ID > t.limit {
		t.nodes[n.ID-t.limit-1] = n
		return
	}
	t.copied[n.ID] = &n
}

// size is the tail's reseal weight: its own nodes plus every lower entry
// it has copied.
func (t *tail) size() int {
	return len(t.nodes) + len(t.copied) + len(t.outE.lower) + len(t.inE.lower) + len(t.visits.lower)
}

// row returns id's row as the tail records it; hit is false when the
// layers below answer.
func (r *tailRows[T]) row(limit, id NodeID) (row []T, hit bool) {
	if id > limit {
		if i := int(id - limit - 1); i < len(r.dense) {
			return r.dense[i], true
		}
		return nil, true
	}
	if len(r.lower) == 0 {
		return nil, false
	}
	row, hit = r.lower[id]
	return row, hit
}

// add appends v to id's row. The first append to a lower node's row
// copies the row below (read through below) into the tail.
func (r *tailRows[T]) add(limit, id NodeID, v T, below func(NodeID) []T) {
	if id > limit {
		i := int(id - limit - 1)
		if i >= len(r.dense) {
			r.dense = append(r.dense, make([][]T, i+1-len(r.dense))...)
		}
		r.dense[i] = append(r.dense[i], v)
		return
	}
	row, ok := r.lower[id]
	if !ok {
		b := below(id)
		row = append(make([]T, 0, len(b)+4), b...)
	}
	r.lower[id] = append(row, v)
}

// frozen returns a copy of the column that later appends to r cannot
// change: rows share their backing arrays, which are append-only, but
// the copy's row headers fix their lengths.
func (r *tailRows[T]) frozen() tailRows[T] {
	return tailRows[T]{dense: slices.Clone(r.dense), lower: maps.Clone(r.lower)}
}

// freeze returns an immutable copy of t for a snapshot, with its visit
// timeline sorted. O(tail).
func (t *tail) freeze() *tail {
	f := &tail{
		limit:    t.limit,
		nodes:    slices.Clone(t.nodes),
		copied:   maps.Clone(t.copied),
		outE:     t.outE.frozen(),
		inE:      t.inE.frozen(),
		outIDs:   t.outIDs.frozen(),
		inIDs:    t.inIDs.frozen(),
		visits:   t.visits.frozen(),
		url:      maps.Clone(t.url),
		term:     maps.Clone(t.term),
		save:     maps.Clone(t.save),
		bookmark: maps.Clone(t.bookmark),
		dls:      slices.Clip(t.dls),
	}
	f.sortOpen()
	return f
}

// sortOpen builds the tail's visit timeline. The live tail calls it when
// a reseal takes the tail over as its capture, unchanged from then on.
func (t *tail) sortOpen() {
	t.open = t.open[:0]
	for i := range t.nodes {
		if n := &t.nodes[i]; n.Kind == KindVisit {
			t.open = append(t.open, openEnt{at: n.Open.UnixMicro(), id: n.ID})
		}
	}
	sort.Slice(t.open, func(i, j int) bool {
		if t.open[i].at != t.open[j].at {
			return t.open[i].at < t.open[j].at
		}
		return t.open[i].id < t.open[j].id
	})
}

// addNode appends n to c's tail as node maxID+1 and indexes it; a zero
// Kind appends a retention gap.
func (c *chain) addNode(n Node) {
	c.maxID++
	n.ID = c.maxID
	t := c.t
	t.nodes = append(t.nodes, n)
	switch n.Kind {
	case KindPage:
		t.url[n.URL] = n.ID
	case KindVisit:
		t.visits.add(t.limit, n.Page, n.ID, c.VisitsOfPage)
	case KindSearchTerm:
		t.term[n.Text] = n.ID
	case KindDownload:
		t.save[n.Text] = n.ID
		t.dls = append(t.dls, n.ID)
	case KindBookmark:
		t.bookmark[n.URL] = n.ID
	}
}

// addEdge appends e to both adjacency directions of c's tail.
func (c *chain) addEdge(e Edge) {
	t := c.t
	t.outE.add(t.limit, e.From, e, c.OutEdges)
	t.outIDs.add(t.limit, e.From, e.To, c.Out)
	t.inE.add(t.limit, e.To, e, c.InEdges)
	t.inIDs.add(t.limit, e.To, e.From, c.In)
}

package provgraph

import "browserprov/internal/graph"

// AllNodeIDs returns every node ID in ID order.
func (sn *Snapshot) AllNodeIDs() []NodeID {
	out := make([]NodeID, 0, sn.nNodes)
	for id := NodeID(1); id <= sn.maxID; id++ {
		if _, _, ok := sn.KindPage(id); ok {
			out = append(out, id)
		}
	}
	return out
}

// VerifyDAG checks the provenance invariant: the instance graph must be
// acyclic (§3.1). It returns nil if the invariant holds, or one violating
// cycle.
func (sn *Snapshot) VerifyDAG() []NodeID {
	return graph.FindCycle(sn, sn.AllNodeIDs())
}

// VerifyDAG checks the invariant over the store's current snapshot.
func (s *Store) VerifyDAG() []NodeID { return s.Snapshot().VerifyDAG() }

// Stats summarises the graph.
type Stats struct {
	Nodes     int `json:"nodes"`
	Edges     int `json:"edges"`
	Pages     int `json:"pages"`
	Visits    int `json:"visits"`
	Bookmarks int `json:"bookmarks"`
	Downloads int `json:"downloads"`
	Terms     int `json:"terms"`
	Forms     int `json:"forms"`
}

// Stats returns node/edge counts by kind. It reads only the kind column:
// O(nodes), no strings decoded.
func (sn *Snapshot) Stats() Stats {
	st := Stats{Nodes: sn.nNodes, Edges: sn.nEdges}
	for id := NodeID(1); id <= sn.maxID; id++ {
		kind, _, _ := sn.KindPage(id)
		switch kind {
		case KindPage:
			st.Pages++
		case KindVisit:
			st.Visits++
		case KindBookmark:
			st.Bookmarks++
		case KindDownload:
			st.Downloads++
		case KindSearchTerm:
			st.Terms++
		case KindFormEntry:
			st.Forms++
		}
	}
	return st
}

// Package export serialises provenance graphs for external tools:
// Graphviz DOT for visual forensics ("show me the neighborhood of this
// download") and a line-oriented JSON dump for downstream analysis.
// Ayers & Stasko's graphic history browser (cited in §3.1) is the
// lineage of the DOT view: the history graph as a picture.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"browserprov/internal/graph"
	"browserprov/internal/provgraph"
)

// Options selects what to export.
type Options struct {
	// Roots restricts the export to the neighborhood of these nodes
	// (both directions, up to Depth hops). Empty = whole graph.
	Roots []provgraph.NodeID
	// Depth bounds neighborhood exports (ignored when Roots is empty;
	// 0 = 3).
	Depth int
	// IncludeEmbeds keeps embed/framed-link edges (default: dropped,
	// they dominate visually without adding forensic value).
	IncludeEmbeds bool
}

func (o Options) depth() int {
	if o.Depth == 0 {
		return 3
	}
	return o.Depth
}

// selectNodes returns the node set to export, in ID order. Without
// IncludeEmbeds, visit instances that exist only because of embedded
// content are dropped along with their edges.
func selectNodes(s *provgraph.Snapshot, o Options) []provgraph.NodeID {
	var ids []provgraph.NodeID
	if len(o.Roots) == 0 {
		ids = s.AllNodeIDs()
	} else {
		seen := make(map[provgraph.NodeID]bool)
		graph.BFS(s, o.Roots, graph.Undirected, func(n graph.NodeID, depth int) bool {
			if depth > o.depth() {
				return false
			}
			seen[n] = true
			return true
		})
		ids = make([]provgraph.NodeID, 0, len(seen))
		for n := range seen {
			ids = append(ids, n)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	if o.IncludeEmbeds {
		return ids
	}
	out := ids[:0]
	for _, id := range ids {
		if n, ok := s.NodeByID(id); ok && n.Kind == provgraph.KindVisit &&
			(n.Via == provgraph.EdgeEmbed || n.Via == provgraph.EdgeFramedLink) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// nodeShape maps node kinds to DOT shapes.
func nodeShape(k provgraph.NodeKind) string {
	switch k {
	case provgraph.KindPage:
		return "box"
	case provgraph.KindVisit:
		return "ellipse"
	case provgraph.KindBookmark:
		return "house"
	case provgraph.KindDownload:
		return "note"
	case provgraph.KindSearchTerm:
		return "diamond"
	case provgraph.KindFormEntry:
		return "parallelogram"
	default:
		return "ellipse"
	}
}

func nodeLabel(n provgraph.Node) string {
	var core string
	switch n.Kind {
	case provgraph.KindSearchTerm:
		core = "🔍 " + n.Text
	case provgraph.KindDownload:
		core = "⬇ " + n.Text
	case provgraph.KindBookmark:
		core = "★ " + n.URL
	default:
		core = n.URL
		if n.Title != "" {
			core = n.Title + "\n" + n.URL
		}
		if n.Kind == provgraph.KindVisit && n.VisitSeq > 1 {
			core += fmt.Sprintf("\n(visit #%d)", n.VisitSeq)
		}
	}
	return core
}

func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// WriteDOT writes the selected subgraph in Graphviz DOT form.
func WriteDOT(w io.Writer, s *provgraph.Snapshot, o Options) error {
	nodes := selectNodes(s, o)
	inSet := make(map[provgraph.NodeID]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	bw := &errWriter{w: w}
	bw.printf("digraph provenance {\n")
	bw.printf("  rankdir=LR;\n  node [fontsize=9];\n  edge [fontsize=8];\n")
	for _, id := range nodes {
		n, ok := s.NodeByID(id)
		if !ok {
			continue
		}
		// Page identity nodes carry no edges; skip them in the drawing
		// (their visits carry the URL already).
		if n.Kind == provgraph.KindPage {
			continue
		}
		bw.printf("  n%d [shape=%s,label=\"%s\"];\n", id, nodeShape(n.Kind), escapeDOT(nodeLabel(n)))
	}
	for _, id := range nodes {
		for _, e := range s.OutEdges(id) {
			if !inSet[e.To] {
				continue
			}
			if !o.IncludeEmbeds && (e.Kind == provgraph.EdgeEmbed || e.Kind == provgraph.EdgeFramedLink) {
				continue
			}
			style := ""
			if e.Kind == provgraph.EdgeRedirectPermanent || e.Kind == provgraph.EdgeRedirectTemporary {
				style = ",style=dashed"
			}
			bw.printf("  n%d -> n%d [label=\"%s\"%s];\n", e.From, e.To, escapeDOT(e.Kind.String()), style)
		}
	}
	bw.printf("}\n")
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// JSONNode is the JSON export form of a node.
type JSONNode struct {
	ID    uint64 `json:"id"`
	Kind  string `json:"kind"`
	URL   string `json:"url,omitempty"`
	Title string `json:"title,omitempty"`
	Text  string `json:"text,omitempty"`
	Open  string `json:"open,omitempty"`
	Close string `json:"close,omitempty"`
	Page  uint64 `json:"page,omitempty"`
	Seq   int    `json:"seq,omitempty"`
}

// JSONEdge is the JSON export form of an edge.
type JSONEdge struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
	Kind string `json:"kind"`
	At   string `json:"at,omitempty"`
}

// jsonLine is one line of the export: exactly one of Node/Edge is set.
type jsonLine struct {
	Node *JSONNode `json:"node,omitempty"`
	Edge *JSONEdge `json:"edge,omitempty"`
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// WriteJSON writes the selected subgraph as newline-delimited JSON:
// every line holds either {"node":...} or {"edge":...}. Nodes precede
// edges; both are in deterministic order.
func WriteJSON(w io.Writer, s *provgraph.Snapshot, o Options) error {
	nodes := selectNodes(s, o)
	inSet := make(map[provgraph.NodeID]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	enc := json.NewEncoder(w)
	for _, id := range nodes {
		n, ok := s.NodeByID(id)
		if !ok {
			continue
		}
		jn := &JSONNode{
			ID: uint64(n.ID), Kind: n.Kind.String(),
			URL: n.URL, Title: n.Title, Text: n.Text,
			Open: fmtTime(n.Open), Close: fmtTime(n.Close),
			Page: uint64(n.Page), Seq: n.VisitSeq,
		}
		if err := enc.Encode(jsonLine{Node: jn}); err != nil {
			return err
		}
	}
	for _, id := range nodes {
		for _, e := range s.OutEdges(id) {
			if !inSet[e.To] {
				continue
			}
			if !o.IncludeEmbeds && (e.Kind == provgraph.EdgeEmbed || e.Kind == provgraph.EdgeFramedLink) {
				continue
			}
			je := &JSONEdge{
				From: uint64(e.From), To: uint64(e.To),
				Kind: e.Kind.String(), At: fmtTime(e.At),
			}
			if err := enc.Encode(jsonLine{Edge: je}); err != nil {
				return err
			}
		}
	}
	return nil
}

package pql

import (
	"context"
	"fmt"
	"strings"

	"browserprov/internal/graph"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

// Result is a query's output: either a node set (ancestors/descendants)
// or a path (first/lineage).
type Result struct {
	// Nodes holds the matches for set queries, or the path (source
	// first) for path queries.
	Nodes []provgraph.Node
	// IsPath reports whether Nodes is an ordered path.
	IsPath bool
	// Found is false for path queries with no matching target.
	Found bool
}

// Eval parses and runs a PQL query against a snapshot-pinned View, so a
// PQL step of an investigation sees exactly the generation the rest of
// it does. Parse errors wrap query.ErrBadQuery; a download source that
// resolves to nothing wraps query.ErrNoSuchDownload.
func Eval(ctx context.Context, v *query.View, src string, opts ...query.Option) (Result, query.Meta, error) {
	q, err := Parse(src)
	if err != nil {
		return Result{}, query.Meta{}, fmt.Errorf("%w: %v", query.ErrBadQuery, err)
	}
	return Run(ctx, v, q, opts...)
}

// Run executes a parsed query on the View. The whole evaluation runs
// against the View's pinned snapshot, so traversal and predicates see a
// consistent point-in-time graph and take no locks; budget and
// cancellation are checked on the first BFS visit and every pollEvery
// visits after it, and surfaced in Meta.
func Run(ctx context.Context, v *query.View, q *Query, opts ...query.Option) (Result, query.Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return Result{}, query.Meta{}, err
	}
	s := r.Snapshot()
	starts, err := resolveSource(s, q.Source)
	if err != nil {
		return Result{}, r.Finish(), err
	}
	pred := compilePred(r, s, q.Where)

	switch q.Op {
	case OpAncestors, OpDescendants:
		dir := graph.Backward
		if q.Op == OpDescendants {
			dir = graph.Forward
		}
		startSet := make(map[provgraph.NodeID]bool, len(starts))
		for _, st := range starts {
			startSet[st] = true
		}
		var out []provgraph.Node
		stop := pollStop(r)
		graph.BFS(s, starts, dir, func(n graph.NodeID, depth int) bool {
			if stop() {
				return false
			}
			if startSet[n] {
				return true
			}
			node, ok := s.NodeByID(n)
			if ok && pred(node) {
				out = append(out, node)
				if q.Limit > 0 && len(out) >= q.Limit {
					return false
				}
			}
			return true
		})
		return Result{Nodes: out, Found: len(out) > 0}, r.Finish(), nil

	case OpFirstAncestor, OpFirstDescendant, OpLineage:
		dir := graph.Backward
		if q.Op == OpFirstDescendant {
			dir = graph.Forward
		}
		if q.Op == OpLineage {
			pred = r.Recognizable
		}
		if len(starts) == 0 {
			return Result{IsPath: true}, r.Finish(), nil
		}
		// Path queries take the first start node (sources resolving to a
		// single object are the common case).
		aborted := false
		stop := pollStop(r)
		path, found := graph.FindFirst(s, starts[0], dir, false, func(n graph.NodeID) bool {
			if stop() {
				aborted = true
				return true // abort traversal by "finding" the current node
			}
			node, ok := s.NodeByID(n)
			return ok && pred(node)
		})
		if aborted {
			found = false
		}
		res := Result{IsPath: true, Found: found}
		for _, id := range path {
			if n, ok := s.NodeByID(id); ok {
				res.Nodes = append(res.Nodes, n)
			}
		}
		return res, r.Finish(), nil
	default:
		return Result{}, r.Finish(), fmt.Errorf("%w: unknown op %d", query.ErrBadQuery, q.Op)
	}
}

// pollEvery is how many BFS visits pass between two budget polls. A
// poll reads the clock, and reading it on every visit cost a few
// percent of a whole query loop.
const pollEvery = 256

// pollStop returns a stop check for a traversal's visit callback: it
// polls r.Stop on the first visit, so an expired budget or a canceled
// context stops at once, and then on every pollEvery-th visit.
func pollStop(r *query.Run) func() bool {
	visits := 0
	return func() bool {
		visits++
		return visits%pollEvery == 1 && r.Stop()
	}
}

// resolveSource maps a source spec to start node IDs.
func resolveSource(s *provgraph.Snapshot, src Source) ([]provgraph.NodeID, error) {
	switch src.Kind {
	case SrcURL:
		page, ok := s.PageByURL(src.Arg)
		if !ok {
			return nil, fmt.Errorf("pql: no page with url %q", src.Arg)
		}
		visits := s.VisitsOfPage(page.ID)
		if len(visits) == 0 {
			// VersionEdges mode: the page is its own instance.
			return []provgraph.NodeID{page.ID}, nil
		}
		return visits, nil
	case SrcDownload:
		for _, id := range s.Downloads() {
			n, ok := s.NodeByID(id)
			if ok && (n.Text == src.Arg || n.URL == src.Arg) {
				return []provgraph.NodeID{id}, nil
			}
		}
		return nil, &query.NoDownloadError{Path: src.Arg}
	case SrcTerm:
		t, ok := s.TermNode(src.Arg)
		if !ok {
			return nil, fmt.Errorf("pql: no search term %q", src.Arg)
		}
		return []provgraph.NodeID{t.ID}, nil
	case SrcNode:
		if _, ok := s.NodeByID(provgraph.NodeID(src.ID)); !ok {
			return nil, fmt.Errorf("pql: no node %d", src.ID)
		}
		return []provgraph.NodeID{provgraph.NodeID(src.ID)}, nil
	default:
		return nil, fmt.Errorf("%w: unknown source kind %d", query.ErrBadQuery, src.Kind)
	}
}

// compilePred turns the AST predicate into a closure. A nil predicate
// matches everything.
func compilePred(r *query.Run, s *provgraph.Snapshot, p *Pred) func(provgraph.Node) bool {
	if p == nil {
		return func(provgraph.Node) bool { return true }
	}
	clauses := make([]func(provgraph.Node) bool, 0, len(p.Clauses))
	for _, c := range p.Clauses {
		clauses = append(clauses, compileClause(r, s, c))
	}
	return func(n provgraph.Node) bool {
		for _, c := range clauses {
			if !c(n) {
				return false
			}
		}
		return true
	}
}

func compileClause(r *query.Run, s *provgraph.Snapshot, c Clause) func(provgraph.Node) bool {
	switch c.Field {
	case "recognizable":
		return r.Recognizable
	case "kind":
		want := kindFromName(c.Str)
		return func(n provgraph.Node) bool { return n.Kind == want }
	case "visits":
		return func(n provgraph.Node) bool {
			page := n.ID
			if n.Kind == provgraph.KindVisit {
				page = n.Page
			} else if n.Kind != provgraph.KindPage {
				return false
			}
			v := s.VisitCount(page)
			switch c.Op {
			case "=":
				return v == c.Num
			case "<":
				return v < c.Num
			case "<=":
				return v <= c.Num
			case ">":
				return v > c.Num
			case ">=":
				return v >= c.Num
			}
			return false
		}
	case "url":
		needle := strings.ToLower(c.Str)
		return func(n provgraph.Node) bool {
			return strings.Contains(strings.ToLower(n.URL), needle)
		}
	case "title":
		needle := strings.ToLower(c.Str)
		return func(n provgraph.Node) bool {
			return strings.Contains(strings.ToLower(n.Title), needle)
		}
	case "text":
		needle := strings.ToLower(c.Str)
		return func(n provgraph.Node) bool {
			return strings.Contains(strings.ToLower(n.Text), needle)
		}
	default:
		return func(provgraph.Node) bool { return false }
	}
}

// kindFromName maps predicate kind names to NodeKinds. Unknown names map
// to an impossible kind so the clause matches nothing (the parser already
// vets spelling in practice).
func kindFromName(name string) provgraph.NodeKind {
	switch name {
	case "page":
		return provgraph.KindPage
	case "visit":
		return provgraph.KindVisit
	case "bookmark":
		return provgraph.KindBookmark
	case "download":
		return provgraph.KindDownload
	case "search-term", "term":
		return provgraph.KindSearchTerm
	case "form-entry", "form":
		return provgraph.KindFormEntry
	default:
		return provgraph.NodeKind(-1)
	}
}

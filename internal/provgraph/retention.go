package provgraph

import (
	"sort"
	"strings"
	"time"

	"browserprov/internal/storage"
)

// EdgeExpiredSplice marks an edge synthesised by expiration: it stands
// for a path that ran through since-expired instances, preserving
// reachability between retained nodes.
const EdgeExpiredSplice EdgeKind = 107

// spliceFanoutLimit bounds the in×out product when splicing around one
// expired node; beyond it, connectivity through that node is dropped
// rather than exploding the edge count.
const spliceFanoutLimit = 64

// ExpireBefore removes history older than cutoff, the way browsers
// expire visits — but provenance-aware:
//
//   - downloads and bookmarks never expire, and neither does their
//     ancestor closure: the lineage answering "how did I get this file?"
//     (§2.4) must survive history expiration;
//   - everything else opened before cutoff is removed;
//   - where an expired instance connected retained nodes, a splice edge
//     preserves the reachability (so descendant queries stay sound);
//   - page identity nodes survive only while they have retained visits
//     or retained objects referencing their URL.
//
// The post-expiration state is immediately checkpointed (the event log
// cannot replay an expiration, so the snapshot must capture it); if the
// checkpoint fails the store is closed-unsafe and the error is returned.
// ExpireBefore returns the number of nodes removed.
func (s *Store) ExpireBefore(cutoff time.Time) (int, error) {
	// ckptMu first (lock order): the rewrite plus its checkpoint must
	// not interleave with a background checkpoint — a dump
	// captured pre-rewrite committing after it would resurrect expired
	// history on the next recovery.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()

	// The rewrite walks and rebuilds the write-side structures; a mapped
	// open that deferred them must materialise first.
	s.thawLocked()

	retained := s.retainedSet(cutoff)

	// Collect splice edges before mutating anything.
	type splice struct {
		from, to NodeID
		at       time.Time
	}
	var splices []splice
	for id, n := range s.nodes {
		if retained[id] || n.Kind == KindPage {
			continue
		}
		ins := s.inE.at(id)
		outs := s.outE.at(id)
		if len(ins)*len(outs) > spliceFanoutLimit {
			continue
		}
		for _, ie := range ins {
			if !retained[ie.From] {
				continue
			}
			for _, oe := range outs {
				if !retained[oe.To] {
					continue
				}
				splices = append(splices, splice{from: ie.From, to: oe.To, at: n.Open})
			}
		}
	}

	// Rebuild node and edge state from the retained set.
	removed := 0
	oldNodes := s.nodes
	oldOut := s.outE
	s.nodes = make(map[NodeID]*Node, len(retained))
	s.outE = adjRows[Edge]{}
	s.inE = adjRows[Edge]{}
	s.outIDs = adjRows[NodeID]{}
	s.inIDs = adjRows[NodeID]{}
	s.urlIndex = storage.NewBTree()
	s.termIndex = storage.NewBTree()
	s.openIndex = storage.NewBTree()
	s.pageVisits = make(map[NodeID][]NodeID)
	s.bookmarkByURL = make(map[string]NodeID)
	s.downloads = nil
	s.saveIndex = make(map[string]NodeID)
	s.numEdges = 0
	// The wholesale rewrite invalidates the sealed epoch: discard it and
	// move to a new generation so cached snapshots expire.
	s.epochReset()
	s.gen.Add(1)
	// And it invalidates any registered text-index checkpoint source:
	// the engine's index still holds the purged history, and a later
	// checkpoint saving it would resurrect expired terms on restart.
	// The replacement engine (History rebuilds it after expiration)
	// re-registers.
	s.textSource = nil
	s.recoveredText = nil

	ids := make([]NodeID, 0, len(oldNodes))
	for id := range oldNodes {
		ids = append(ids, id)
	}
	sortNodeIDs(ids)
	// Nodes are block-allocated (see newNode): copy survivors out of
	// their blocks so expired neighbors in the same block — and the
	// privacy-sensitive URLs/terms they reference — actually become
	// unreachable, and drop the current partial block with them. The
	// strings are cloned too: checkpoint-loaded nodes hold zero-copy
	// substrings of one shared column blob, and a survivor keeping that
	// blob alive would keep every expired URL in it alive as well.
	s.nodeBlock = nil
	for _, id := range ids {
		if !retained[id] {
			removed++
			continue
		}
		cp := *oldNodes[id]
		cp.URL = strings.Clone(cp.URL)
		cp.Title = strings.Clone(cp.Title)
		cp.Text = strings.Clone(cp.Text)
		s.nodes[id] = &cp
		s.indexNode(&cp)
	}
	for _, id := range ids {
		if !retained[id] {
			continue
		}
		for _, e := range oldOut.at(id) {
			if retained[e.To] {
				s.addEdge(e.From, e.To, e.Kind, e.At)
			}
		}
	}
	for _, sp := range splices {
		s.addEdge(sp.from, sp.to, EdgeExpiredSplice, sp.at)
	}
	s.numNodes = len(s.nodes)

	// Assembly state referencing expired nodes is dropped.
	for tab, v := range s.tabCur {
		if !retained[v] {
			delete(s.tabCur, tab)
		}
	}
	for url, v := range s.lastVisitByURL {
		if !retained[v] {
			delete(s.lastVisitByURL, url)
		}
	}
	for tab, p := range s.pendingSearch {
		if !retained[p.node] {
			delete(s.pendingSearch, tab)
		}
	}
	for tab, p := range s.pendingForm {
		if !retained[p.node] {
			delete(s.pendingForm, tab)
		}
	}

	// The event log cannot reproduce this state; checkpoint now, under
	// the lock (Checkpoint's background path would release it, and
	// events applied between the rewrite and its checkpoint would
	// replay over pre-expiration state on recovery). The dump is the
	// same checkpoint Checkpoint writes, with one deliberate omission: no text-postings section — the engine's
	// index still references the purged history, and persisting it
	// would resurrect expired terms after a restart.
	sn := s.snapshotLocked()
	asm := s.captureAssemblyLocked()
	ticket, err := s.j.BeginCheckpoint()
	if err != nil {
		return removed, err
	}
	ep := flattenEpoch(sn)
	if err := ticket.WriteSections(func(w *storage.SectionWriter) error {
		return writeSnapshotV3(w, ep, asm, nil, 0)
	}); err != nil {
		return removed, err
	}
	if err := s.j.CommitCheckpoint(ticket); err != nil {
		return removed, err
	}
	return removed, nil
}

// retainedSet computes the survivors of an expiration at cutoff.
func (s *Store) retainedSet(cutoff time.Time) map[NodeID]bool {
	retained := make(map[NodeID]bool, len(s.nodes))

	// Recent instances and permanent objects survive.
	var pins []NodeID
	for id, n := range s.nodes {
		switch {
		case n.Kind == KindPage:
			// Decided after visits are known.
		case n.Kind == KindDownload || n.Kind == KindBookmark:
			retained[id] = true
			pins = append(pins, id)
		case !n.Open.Before(cutoff):
			retained[id] = true
		}
	}
	// Lineage pinning: the full ancestor closure of downloads and
	// bookmarks survives regardless of age. (Traverses raw adjacency —
	// the caller holds the write lock, so the locking graph.Graph view
	// must not be used here.)
	seen := make(map[NodeID]bool, len(pins)*4)
	queue := append([]NodeID(nil), pins...)
	for _, p := range pins {
		seen[p] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		retained[n] = true
		for _, m := range s.inIDs.at(n) {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	// Pages survive while something retained references them.
	for id, n := range s.nodes {
		if n.Kind != KindPage {
			continue
		}
		for _, v := range s.pageVisits[id] {
			if retained[v] {
				retained[id] = true
				break
			}
		}
	}
	// Bookmarks keep their page identity alive too (the URL remains
	// meaningful in the UI even with zero retained visits).
	for url := range s.bookmarkByURL {
		if pid, ok := s.urlIndex.Get([]byte(url)); ok {
			retained[NodeID(pid)] = true
		}
	}
	return retained
}

// indexNode rebuilds the secondary index entries for n after a rewrite.
func (s *Store) indexNode(n *Node) {
	switch n.Kind {
	case KindPage:
		s.urlIndex.Put(s.scratchKey(n.URL), uint64(n.ID))
	case KindVisit:
		s.pageVisits[n.Page] = append(s.pageVisits[n.Page], n.ID)
		s.keyBuf = appendTimeKey(s.keyBuf[:0], n.Open, n.ID)
		s.openIndex.Put(s.keyBuf, uint64(n.ID))
	case KindSearchTerm:
		s.termIndex.Put(s.scratchKey(n.Text), uint64(n.ID))
	case KindBookmark:
		s.bookmarkByURL[n.URL] = n.ID
	case KindDownload:
		s.downloads = append(s.downloads, n.ID)
		s.saveIndex[n.Text] = n.ID
	}
}

func sortNodeIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

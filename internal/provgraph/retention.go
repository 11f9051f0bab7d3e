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
//     or retained objects referencing their URL;
//   - a later event whose referrer URL no tab shows attaches to that
//     URL's latest retained visit (see lastVisit), which may be an
//     earlier visit than the expired latest one — the same answer a
//     store reopened from the post-expiration checkpoint gives.
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

	old := s.buildSnapshot()
	retained := retainedSet(old, cutoff)

	// Splice edges around expired instances, read before anything is
	// rebuilt.
	var splices []Edge
	for id := NodeID(1); id <= old.maxID; id++ {
		kind, _, ok := old.KindPage(id)
		if retained[id] || !ok || kind == KindPage {
			continue
		}
		ins, outs := old.InEdges(id), old.OutEdges(id)
		if len(ins)*len(outs) > spliceFanoutLimit {
			continue
		}
		open, _, _ := old.OpenClose(id)
		for _, ie := range ins {
			if !retained[ie.From] {
				continue
			}
			for _, oe := range outs {
				if retained[oe.To] {
					splices = append(splices, Edge{From: ie.From, To: oe.To, Kind: EdgeExpiredSplice, At: open})
				}
			}
		}
	}

	// Rebuild the survivors as a tail over nothing, keeping their IDs
	// (expired ones become gaps). The strings are cloned: checkpoint-
	// loaded nodes hold zero-copy substrings of one shared column blob,
	// and a survivor keeping that blob alive would keep every expired
	// URL in it alive as well.
	c := chain{t: newTail(0)}
	removed := 0
	for id := NodeID(1); id <= old.maxID; id++ {
		n, ok := old.NodeByID(id)
		if ok && !retained[id] {
			removed++
		}
		if !ok || !retained[id] {
			c.addNode(Node{})
			continue
		}
		n.URL = strings.Clone(n.URL)
		n.Title = strings.Clone(n.Title)
		n.Text = strings.Clone(n.Text)
		c.addNode(n)
	}
	numEdges := len(splices)
	for id := NodeID(1); id <= old.maxID; id++ {
		if !retained[id] {
			continue
		}
		for _, e := range old.OutEdges(id) {
			if retained[e.To] {
				c.addEdge(e)
				numEdges++
			}
		}
	}
	for _, e := range splices {
		c.addEdge(e)
	}
	s.numNodes -= removed
	s.numEdges = numEdges
	ep := flattenEpoch(&Snapshot{mode: s.mode, nNodes: s.numNodes, nEdges: numEdges, chain: c})

	// Install the flattened survivors as the sealed epoch under an empty
	// tail. Any in-flight reseal was built from the old graph: bumping
	// sealSeq makes its publish a no-op.
	s.w = chain{maxID: c.maxID, t: newTail(c.maxID), sealed: ep}
	s.sealSeq++
	s.gen.Add(1)
	s.snap.Store(nil)
	// The rewrite also invalidates any registered text-index checkpoint
	// source: the engine's index still holds the purged history, and a
	// later checkpoint saving it would resurrect expired terms on
	// restart. The replacement engine (History rebuilds it after
	// expiration) re-registers.
	s.textSource = nil
	s.recoveredText = nil

	// Assembly state referencing expired nodes is dropped.
	for tab, v := range s.tabCur {
		if !retained[v] {
			delete(s.tabCur, tab)
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
	for p := range s.embedOnly {
		if !retained[p] {
			delete(s.embedOnly, p)
		}
	}

	// The event log cannot reproduce this state; checkpoint now, under
	// the lock (Checkpoint's background path would release it, and
	// events applied between the rewrite and its checkpoint would
	// replay over pre-expiration state on recovery). The dump is the
	// same checkpoint Checkpoint writes, with one deliberate omission:
	// no text-postings section — the engine's index still references
	// the purged history, and persisting it would resurrect expired
	// terms after a restart.
	asm := s.captureAssemblyLocked()
	ticket, err := s.j.BeginCheckpoint()
	if err != nil {
		return removed, err
	}
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

// retainedSet computes the survivors of an expiration at cutoff,
// indexed by node ID.
func retainedSet(sn *Snapshot, cutoff time.Time) []bool {
	retained := make([]bool, sn.maxID+1)

	// Recent instances and permanent objects survive.
	var pins []NodeID
	for id := NodeID(1); id <= sn.maxID; id++ {
		kind, _, ok := sn.KindPage(id)
		switch {
		case !ok || kind == KindPage:
			// Gaps never survive; pages are decided after visits are known.
		case kind == KindDownload || kind == KindBookmark:
			retained[id] = true
			pins = append(pins, id)
		default:
			if open, _, _ := sn.OpenClose(id); !open.Before(cutoff) {
				retained[id] = true
			}
		}
	}
	// Lineage pinning: the full ancestor closure of downloads and
	// bookmarks survives regardless of age.
	seen := make([]bool, sn.maxID+1)
	queue := append([]NodeID(nil), pins...)
	for _, p := range pins {
		seen[p] = true
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		retained[n] = true
		for _, m := range sn.In(n) {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	// Pages survive while something retained references them. An
	// edge-versioned page has no visit instances: its visits are its
	// Open and the times of its edges, so any of those at or after the
	// cutoff keeps it.
	for id := NodeID(1); id <= sn.maxID; id++ {
		if kind, _, _ := sn.KindPage(id); kind != KindPage {
			continue
		}
		if sn.mode == VersionEdges && pageActiveSince(sn, id, cutoff) {
			retained[id] = true
			continue
		}
		for _, v := range sn.VisitsOfPage(id) {
			if retained[v] {
				retained[id] = true
				break
			}
		}
	}
	// Bookmarks keep their page identity alive too (the URL remains
	// meaningful in the UI even with zero retained visits).
	for _, b := range pins {
		if n, _ := sn.NodeByID(b); n.Kind == KindBookmark {
			if p, ok := sn.PageByURL(n.URL); ok {
				retained[p.ID] = true
			}
		}
	}
	return retained
}

// pageActiveSince reports whether an edge-versioned page was opened, or
// gained an in- or out-edge, at or after cutoff.
func pageActiveSince(sn *Snapshot, page NodeID, cutoff time.Time) bool {
	if open, _, _ := sn.OpenClose(page); !open.Before(cutoff) {
		return true
	}
	for _, es := range [][]Edge{sn.InEdges(page), sn.OutEdges(page)} {
		for _, e := range es {
			if !e.At.Before(cutoff) {
				return true
			}
		}
	}
	return false
}

func sortNodeIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

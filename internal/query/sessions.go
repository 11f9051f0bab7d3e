package query

import (
	"context"
	"time"

	"browserprov/internal/provgraph"
)

// Session is a contiguous sitting of browsing activity: visits whose
// open times are separated by less than the session gap. Sessions are
// the paper's "similar time span" (§2.3) made first-class: Gyllstrom &
// Soules built retrieval on exactly this notion of temporal context.
type Session struct {
	Start  time.Time
	End    time.Time
	Visits []provgraph.NodeID
}

// sessionGap splits sessions: a quiet period this long ends a sitting.
const sessionGap = 30 * time.Minute

// Sessions reconstructs the history's sittings in chronological order by
// splitting the visit timeline at gaps of 30 minutes or more.
func (v *View) Sessions(ctx context.Context, opts ...Option) ([]Session, Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return nil, Meta{}, err
	}
	out := r.sessions()
	return out, r.Finish(), nil
}

func (r *Run) sessions() []Session {
	if r.Stop() {
		return nil
	}
	sn := r.Snapshot()
	var out []Session
	var cur *Session
	// OpenBetween over all time yields visits in open order. Only the
	// times are read: no visit's strings are decoded.
	for _, v := range sn.OpenBetween(time.Time{}, time.Unix(1<<40, 0)) {
		open, close, ok := sn.OpenClose(v)
		if !ok {
			continue
		}
		if cur == nil || open.Sub(cur.End) >= sessionGap {
			out = append(out, Session{Start: open, End: open})
			cur = &out[len(out)-1]
		}
		cur.Visits = append(cur.Visits, v)
		if open.After(cur.End) {
			cur.End = open
		}
		// A close extends the sitting only if it happened while the user
		// was plausibly still active; a close recorded hours later (tab
		// replaced long after reading ended) is not activity.
		if !close.IsZero() && close.After(cur.End) && close.Sub(open) < sessionGap {
			cur.End = close
		}
	}
	return out
}

// SessionOf returns the session containing the given visit node, and
// whether one was found. For non-visit nodes (downloads, terms), the
// session is located by the node's creation time.
func (v *View) SessionOf(ctx context.Context, id provgraph.NodeID, opts ...Option) (Session, bool, Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return Session{}, false, Meta{}, err
	}
	n, ok := r.Snapshot().NodeByID(id)
	if !ok {
		return Session{}, false, r.Finish(), nil
	}
	for _, s := range r.sessions() {
		// A node belongs to the session whose span (padded by the gap)
		// covers its open time.
		if !n.Open.Before(s.Start) && n.Open.Sub(s.End) < sessionGap {
			return s, true, r.Finish(), nil
		}
	}
	return Session{}, false, r.Finish(), nil
}

// SessionSummary describes a session for display: its span and the
// most-visited pages within it.
type SessionSummary struct {
	Start  time.Time
	End    time.Time
	Pages  []provgraph.Node
	Visits int
}

// SummarizeSessions returns display summaries of the most recent n
// sessions (newest first).
func (v *View) SummarizeSessions(ctx context.Context, n int, opts ...Option) ([]SessionSummary, Meta, error) {
	r, err := v.Begin(ctx, opts...)
	if err != nil {
		return nil, Meta{}, err
	}
	sn := r.Snapshot()
	sessions := r.sessions()
	if n > 0 && len(sessions) > n {
		sessions = sessions[len(sessions)-n:]
	}
	out := make([]SessionSummary, 0, len(sessions))
	seen := &r.arena.Seen
	for i := len(sessions) - 1; i >= 0; i-- {
		s := sessions[i]
		sum := SessionSummary{Start: s.Start, End: s.End, Visits: len(s.Visits)}
		seen.Reset(r.arena.NodeCap())
		for _, v := range s.Visits {
			vn, ok := sn.NodeByID(v)
			if !ok || !seen.TrySet(vn.Page) {
				continue
			}
			if pn, ok := sn.NodeByID(vn.Page); ok && len(sum.Pages) < 5 {
				sum.Pages = append(sum.Pages, pn)
			}
		}
		out = append(out, sum)
	}
	return out, r.Finish(), nil
}

package query

import (
	"context"
	"testing"
	"time"

	"browserprov/internal/event"
)

func TestSessionsSplitOnGaps(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	// Session 1: three visits within minutes.
	f.visit(t, "http://a.example/", "A", "", event.TransTyped)
	f.visit(t, "http://b.example/", "B", "http://a.example/", event.TransLink)
	f.visit(t, "http://c.example/", "C", "http://b.example/", event.TransLink)
	// Quiet for 2 hours.
	f.now = f.now.Add(2 * time.Hour)
	// Session 2: two visits.
	f.visit(t, "http://d.example/", "D", "", event.TransTyped)
	f.visit(t, "http://e.example/", "E", "http://d.example/", event.TransLink)

	e := NewEngine(f.s, Options{})
	sessions, _, _ := e.View().Sessions(ctx)
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	if len(sessions[0].Visits) != 3 || len(sessions[1].Visits) != 2 {
		t.Fatalf("session sizes = %d, %d", len(sessions[0].Visits), len(sessions[1].Visits))
	}
	if !sessions[0].End.Before(sessions[1].Start) {
		t.Fatal("sessions overlap")
	}
}

func TestSessionsEmptyHistory(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	e := NewEngine(f.s, Options{})
	if got, _, _ := e.View().Sessions(ctx); len(got) != 0 {
		t.Fatalf("sessions on empty history = %d", len(got))
	}
}

func TestSessionOfNode(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	f.visit(t, "http://one.example/", "One", "", event.TransTyped)
	f.now = f.now.Add(3 * time.Hour)
	f.visit(t, "http://two.example/", "Two", "", event.TransTyped)
	f.download(t, "http://two.example/f.zip", "http://two.example/", "/dl/f.zip")

	e := NewEngine(f.s, Options{})
	dl := f.s.Snapshot().Downloads()[0]
	s, ok, _, _ := e.View().SessionOf(ctx, dl)
	if !ok {
		t.Fatal("download's session not found")
	}
	// The session containing the download is the second one: it holds
	// the "two" visit, not "one".
	hasTwo := false
	for _, v := range s.Visits {
		n, _ := f.s.Snapshot().NodeByID(v)
		if n.URL == "http://two.example/" {
			hasTwo = true
		}
		if n.URL == "http://one.example/" {
			t.Fatal("download assigned to the earlier session")
		}
	}
	if !hasTwo {
		t.Fatal("session missing its visit")
	}
}

func TestSummarizeSessions(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	for day := 0; day < 3; day++ {
		f.visit(t, "http://daily.example/", "Daily", "", event.TransTyped)
		f.visit(t, "http://other.example/", "Other", "http://daily.example/", event.TransLink)
		f.now = f.now.Add(24 * time.Hour)
	}
	e := NewEngine(f.s, Options{})
	sums, _, _ := e.View().SummarizeSessions(ctx, 2)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	// Newest first.
	if !sums[0].Start.After(sums[1].Start) {
		t.Fatal("summaries not newest-first")
	}
	if sums[0].Visits != 2 || len(sums[0].Pages) != 2 {
		t.Fatalf("summary = %+v", sums[0])
	}
}

func TestSessionsBoundStaleTabs(t *testing.T) {
	ctx := context.Background()
	f := newFixture(t)
	// A visit "closed" a day later (stale tab) must not stretch its
	// session across the day.
	f.visit(t, "http://stale.example/", "Stale", "", event.TransTyped)
	f.now = f.now.Add(24 * time.Hour)
	f.apply(t, &event.Event{Time: f.now, Type: event.TypeClose, Tab: f.tab, URL: "http://stale.example/"})
	f.now = f.now.Add(time.Hour)
	f.visit(t, "http://next.example/", "Next", "", event.TransTyped)

	e := NewEngine(f.s, Options{})
	sessions, _, _ := e.View().Sessions(ctx)
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2 (stale close must not merge them)", len(sessions))
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/provgraph"
	"browserprov/internal/replica"
)

func provdVisit(i int) *event.Event {
	return &event.Event{
		Time: time.Unix(1700000000+int64(i), 0), Type: event.TypeVisit, Tab: 1,
		URL: fmt.Sprintf("http://provd-e2e.example/p%d", i), Title: fmt.Sprintf("page %d", i),
		Transition: event.TransLink,
	}
}

// TestFollowerDaemonEndToEnd wires the two daemon halves the way main()
// does — the shell's admin handler over a storeBackend on the leader,
// over a followerBackend tailing it on the replica — and checks the
// operational contract: the follower catches up and goes ready, /ingest
// redirects to the leader, and both /stats replies carry their side of
// the replication accounting.
func TestFollowerDaemonEndToEnd(t *testing.T) {
	sb, err := openStore(t.TempDir(), provgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store := sb.store
	defer store.Close()
	leader := httptest.NewServer(newShell(sb, shellConfig{}).admin())
	defer leader.Close()

	// History worth bootstrapping: a checkpointed prefix plus a WAL tail.
	for i := 0; i < 50; i++ {
		if err := store.Apply(provdVisit(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 80; i++ {
		if err := store.Apply(provdVisit(i)); err != nil {
			t.Fatal(err)
		}
	}

	fb, err := newFollowerBackend(replica.FollowerOptions{
		Dir: t.TempDir(), LeaderURL: leader.URL, ID: "e2e",
		WaitMS: 100, RetryInterval: 25 * time.Millisecond,
		Client: &http.Client{Timeout: 5 * time.Second},
		Logf:   t.Logf,
	}, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.close()
	f := fb.f
	fsrv := httptest.NewServer(newShell(fb, shellConfig{}).admin())
	defer fsrv.Close()

	deadline := time.Now().Add(15 * time.Second)
	for f.Stats().AppliedLSN < store.NextLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at lsn %d, leader at %d", f.Stats().AppliedLSN, store.NextLSN())
		}
		time.Sleep(10 * time.Millisecond)
	}

	getJSON := func(url string) statsReply {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", url, resp.Status)
		}
		var sr statsReply
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	// Caught-up follower: ready, and its stats mirror the leader's graph.
	resp, err := http.Get(fsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower /readyz = %s, want 200", resp.Status)
	}
	ls, fs := getJSON(leader.URL+"/stats"), getJSON(fsrv.URL+"/stats")
	if fs.Nodes != ls.Nodes || fs.Edges != ls.Edges || fs.Visits != ls.Visits {
		t.Fatalf("follower graph %d/%d/%d != leader %d/%d/%d",
			fs.Nodes, fs.Edges, fs.Visits, ls.Nodes, ls.Edges, ls.Visits)
	}
	if fs.Replication == nil || fs.Replication.Role != "follower" ||
		fs.Replication.Follower == nil || fs.Replication.Follower.AppliedLSN == 0 {
		t.Fatalf("follower /stats replication section malformed: %+v", fs.Replication)
	}
	if ls.Replication == nil || ls.Replication.Role != "leader" {
		t.Fatalf("leader /stats replication section malformed: %+v", ls.Replication)
	}
	if st, ok := ls.Replication.Followers["e2e"]; !ok || st.BytesShipped == 0 {
		t.Fatalf("leader does not account for follower e2e: %+v", ls.Replication.Followers)
	}

	// Writes are refused with a pointer home.
	resp, err = http.Post(fsrv.URL+"/ingest", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower /ingest = %s, want 503", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != leader.URL+"/ingest" {
		t.Fatalf("follower /ingest Location = %q, want %q", loc, leader.URL+"/ingest")
	}

	// An unreachable lag gate: with -max-lag 0 the same follower reports
	// not-ready the moment anything is in flight; with generous lag it
	// stays ready. Only the zero-lag edge is cheap to pin here.
	strictFB := &followerBackend{f: f, leaderURL: leader.URL, maxLag: 0}
	strictFB.eng.Store(fb.eng.Load())
	strict := httptest.NewServer(newShell(strictFB, shellConfig{}).admin())
	defer strict.Close()
	resp, err = http.Get(strict.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Caught up means LagSeconds == 0, which is within a 0 max-lag;
		// a 503 here would mean the gate miscounts at the boundary.
		t.Fatalf("caught-up follower with max-lag 0 not ready: %s", resp.Status)
	}
}

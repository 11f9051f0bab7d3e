package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
	"browserprov/internal/shardmap"
)

// logWatch collects a provd process's log and finds the listener
// addresses it reports.
type logWatch struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logWatch) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logWatch) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

var boundRe = regexp.MustCompile(`provd: (admin|proxy) listener on (\S+)`)

// bound returns the address logged for the admin or proxy listener, or
// "" if none is logged yet.
func (l *logWatch) bound(which string) string {
	for _, m := range boundRe.FindAllStringSubmatch(l.String(), -1) {
		if m[1] == which {
			return m[2]
		}
	}
	return ""
}

// provdProc is one provd process run from the test binary.
type provdProc struct {
	cmd          *exec.Cmd
	log          *logWatch
	done         chan struct{}
	admin, proxy string // http://host:port; proxy "" for a follower
}

// startProvd execs provd with args plus OS-picked listener ports, and
// returns once its listeners are bound and /readyz answers 200.
func startProvd(t *testing.T, proxy bool, args ...string) *provdProc {
	t.Helper()
	args = append(args, "-admin", "127.0.0.1:0", "-listen", "127.0.0.1:0", "-flush", "50ms")
	p := &provdProc{log: &logWatch{}, done: make(chan struct{})}
	p.cmd = exec.Command(os.Args[0], "-test.run=^$")
	p.cmd.Env = append(os.Environ(), provdArgsEnv+"="+strings.Join(args, "\n"))
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() {
		select {
		case <-p.done:
		default:
			p.cmd.Process.Kill()
			<-p.done
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if a := p.log.bound("admin"); a != "" && (!proxy || p.log.bound("proxy") != "") {
			p.admin = "http://" + a
			if proxy {
				p.proxy = "http://" + p.log.bound("proxy")
			}
			break
		}
		p.wait(t, deadline, "listeners bound")
	}
	for {
		if resp, err := http.Get(p.admin + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		p.wait(t, deadline, "/readyz 200")
	}
}

// wait sleeps a poll interval, failing the test if provd has exited or
// the deadline has passed before what.
func (p *provdProc) wait(t *testing.T, deadline time.Time, what string) {
	t.Helper()
	select {
	case <-p.done:
		t.Fatalf("provd exited (%v) before %s:\n%s", p.cmd.ProcessState, what, p.log)
	case <-time.After(10 * time.Millisecond):
	}
	if time.Now().After(deadline) {
		t.Fatalf("provd: no %s within 30s:\n%s", what, p.log)
	}
}

// stop sends SIGTERM and requires a clean exit.
func (p *provdProc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("provd still running 30s after SIGTERM:\n%s", p.log)
	}
	if !p.cmd.ProcessState.Success() {
		t.Fatalf("provd stopped with %v, want exit 0:\n%s", p.cmd.ProcessState, p.log)
	}
}

// getJSON decodes the 200 answer of GET u into v.
func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", u, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v: %s", u, err, body)
	}
}

// requireKeys checks that GET u answers a JSON object carrying keys.
func requireKeys(t *testing.T, u string, keys ...string) {
	t.Helper()
	var m map[string]json.RawMessage
	getJSON(t, u, &m)
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			t.Errorf("GET %s: no %q key in %v", u, k, m)
		}
	}
}

// kinds are the per-kind counts single-tenant /stats reports.
type kinds struct {
	Nodes     int `json:"nodes"`
	Edges     int `json:"edges"`
	Pages     int `json:"pages"`
	Visits    int `json:"visits"`
	Downloads int `json:"downloads"`
	Bookmarks int `json:"bookmarks"`
	Terms     int `json:"terms"`
	Forms     int `json:"forms"`
}

func storeKinds(st provgraph.Stats) kinds {
	return kinds{st.Nodes, st.Edges, st.Pages, st.Visits, st.Downloads, st.Bookmarks, st.Terms, st.Forms}
}

// reopenKinds opens the store in dir after its daemon has stopped.
func reopenKinds(t *testing.T, dir string) kinds {
	t.Helper()
	store, err := provgraph.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	return storeKinds(store.Snapshot().Stats())
}

// modesOrigin is a local web server that remembers the tenant header
// of the last request it served.
type modesOrigin struct {
	*httptest.Server
	mu     sync.Mutex
	tenant []string
}

func newModesOrigin() *modesOrigin {
	o := &modesOrigin{}
	o.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.mu.Lock()
		o.tenant = r.Header.Values(ingest.TenantHeader)
		o.mu.Unlock()
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html><head><title>Modes origin %s</title></head></html>", r.URL.Path)
	}))
	return o
}

// fetch GETs path on the origin through p's capture proxy as tenant,
// and requires the origin not to have seen the tenant header.
func (o *modesOrigin) fetch(t *testing.T, p *provdProc, path, tenant string) {
	t.Helper()
	proxyURL, _ := url.Parse(p.proxy)
	c := &http.Client{Transport: &http.Transport{Proxy: http.ProxyURL(proxyURL)}, Timeout: 10 * time.Second}
	defer c.CloseIdleConnections()
	req, _ := http.NewRequest(http.MethodGet, o.URL+path, nil)
	req.Header.Set(ingest.TenantHeader, tenant)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied GET %s: %s", path, resp.Status)
	}
	o.mu.Lock()
	seen := o.tenant
	o.mu.Unlock()
	if len(seen) != 0 {
		t.Errorf("origin received %s: %q; the proxy must strip it", ingest.TenantHeader, seen)
	}
}

// postBatch POSTs a batch of three visits as tenant and returns the
// answer, requiring 200.
func postBatch(t *testing.T, admin, tenant string) ingest.Response {
	t.Helper()
	b := ingest.Batch{SchemaVersion: ingest.SchemaVersion}
	for i := 0; i < 3; i++ {
		b.Events = append(b.Events, ingest.WireEvent{
			ID: fmt.Sprintf("modes-%d", i), Type: "visit", Transition: "typed",
			Time: time.Unix(1700000000+int64(i), 0).UTC(),
			URL:  fmt.Sprintf("http://modes-ingest.example/p%d", i), Title: "ingested page",
		})
	}
	body, _ := json.Marshal(b)
	req, _ := http.NewRequest(http.MethodPost, admin+"/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ingest.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: %s: %s", resp.Status, raw)
	}
	var out ingest.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkIngest requires a fresh batch to apply whole and its verbatim
// re-send to apply nothing.
func checkIngest(t *testing.T, admin, tenant string) {
	t.Helper()
	if r := postBatch(t, admin, tenant); r.Applied != 3 || r.Rejected != 0 {
		t.Fatalf("first POST /ingest: applied %d, rejected %d; want 3, 0", r.Applied, r.Rejected)
	}
	if r := postBatch(t, admin, tenant); r.Applied != 0 || r.Duplicates != 3 {
		t.Fatalf("re-sent POST /ingest: applied %d, duplicates %d; want 0, 3", r.Applied, r.Duplicates)
	}
}

// waitFor polls cond every 20 ms for up to 20 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// singleStatsKeys are the single-tenant /stats keys perfbench and
// operators read.
var singleStatsKeys = []string{"generation", "nodes", "edges", "pages", "visits", "downloads",
	"bookmarks", "terms", "forms", "size_on_disk_bytes", "checkpoint_bytes", "wal_bytes",
	"last_checkpoint_age_seconds", "mapped_bytes", "heap_load_bytes", "dropped_events",
	"ingest", "dedup_window", "scrub", "health"}

// TestDaemonModes runs provd as a real process in each of its modes —
// single-tenant, sharded, and a follower of the single-tenant one — and
// checks the contract each serves: readiness, proxied capture with the
// tenant header stripped before the origin, idempotent POST /ingest,
// the /stats keys, the follower's ingest redirect, and a SIGTERM that
// exits 0 leaving a store that reopens with the same counts.
func TestDaemonModes(t *testing.T) {
	origin := newModesOrigin()
	defer origin.Close()

	t.Run("single", func(t *testing.T) {
		dir := t.TempDir()
		p := startProvd(t, true, "-dir", dir)
		origin.fetch(t, p, "/single", "alice")
		var live kinds
		waitFor(t, "the captured visit", func() bool {
			getJSON(t, p.admin+"/stats", &live)
			return live.Visits >= 1
		})
		checkIngest(t, p.admin, "")
		requireKeys(t, p.admin+"/stats", append(singleStatsKeys, "replication")...)
		getJSON(t, p.admin+"/stats", &live)
		if live.Visits < 4 {
			t.Fatalf("/stats visits = %d after a capture and 3 ingested, want >= 4", live.Visits)
		}

		t.Run("follower", func(t *testing.T) {
			fdir := t.TempDir()
			f := startProvd(t, false, "-follow", p.admin, "-dir", fdir)
			if strings.Contains(f.log.String(), "proxy listener") {
				t.Errorf("follower bound a proxy listener:\n%s", f.log)
			}
			var fk kinds
			waitFor(t, "the follower to catch up", func() bool {
				getJSON(t, f.admin+"/stats", &fk)
				return fk == live
			})
			requireKeys(t, f.admin+"/stats", append(singleStatsKeys, "replication")...)
			resp, err := http.Post(f.admin+"/ingest", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("follower POST /ingest = %s, want 503", resp.Status)
			}
			if loc := resp.Header.Get("Location"); loc != p.admin+"/ingest" {
				t.Fatalf("follower /ingest Location = %q, want %q", loc, p.admin+"/ingest")
			}
			f.stop(t)
			if got := reopenKinds(t, fdir); got != fk {
				t.Fatalf("reopened follower store %+v, /stats said %+v", got, fk)
			}
		})

		p.stop(t)
		if got := reopenKinds(t, dir); got != live {
			t.Fatalf("reopened store %+v, /stats said %+v", got, live)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		root := t.TempDir()
		p := startProvd(t, true, "-shard-root", root)
		origin.fetch(t, p, "/sharded", "alice")
		var live kinds
		waitFor(t, "the captured visit", func() bool {
			getJSON(t, p.admin+"/stats/alice", &live)
			return live.Nodes >= 1
		})
		checkIngest(t, p.admin, "alice")
		requireKeys(t, p.admin+"/stats", "open_tenants", "known_tenants", "opens", "reopens",
			"evictions", "mapped_bytes", "heap_load_bytes", "flush_errors", "dropped_events",
			"ingest", "quarantines", "repairs", "repair_failures", "scrub_sweeps", "health")
		requireKeys(t, p.admin+"/stats/alice", "tenant", "generation", "nodes", "edges",
			"size_on_disk_bytes", "checkpoint_bytes", "wal_bytes", "mapped_bytes", "heap_load_bytes")
		getJSON(t, p.admin+"/stats/alice", &live)

		p.stop(t)
		m, err := shardmap.Open(root, shardmap.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		h, err := m.Get("alice")
		if err != nil {
			t.Fatal(err)
		}
		got := storeKinds(h.Store().Snapshot().Stats())
		h.Release()
		if got.Nodes != live.Nodes || got.Edges != live.Edges || got.Visits < 4 {
			t.Fatalf("reopened tenant store %+v, /stats/alice said %d nodes, %d edges; want them and >= 4 visits",
				got, live.Nodes, live.Edges)
		}
	})
}

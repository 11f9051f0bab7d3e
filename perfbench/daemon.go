package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"browserprov"
	"browserprov/internal/event"
	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
)

const (
	// daemonBaseDays sizes the base event stream (~20k events) that the
	// uploader replays in passes, each shifted past the last in time and
	// sent under fresh event IDs.
	daemonBaseDays = 60
	// Short enough that a run sees several checkpoints and scrub sweeps.
	daemonCheckpointEvery = "5s"
	daemonScrubEvery      = "2s"
	// warmBatches batches make the cold store cold_open_ms is measured
	// on, over killCycles SIGKILL/restart cycles, each after killBatches
	// more acknowledged batches.
	warmBatches = 300
	killCycles  = 12
	killBatches = 4
	// proxyPages distinct origin pages are fetched through the proxy.
	proxyPages = 50
	// The loop runs seconds × daemonRoundsPerSecond whole rounds, about
	// -seconds long on the reference box (README). Every run does the same
	// work and ends on a store of the same size: a loop bounded by time
	// instead grows the store further when it runs faster, and checkpoint
	// cost, scrub re-reads and provd's peak RSS grow with the store.
	daemonRoundsPerSecond = 16
)

// daemonRound is one round of the uploader: 80 % fresh 64-event POSTs,
// 10 % verbatim re-sends of the batch sent four operations earlier (a
// retry after a lost ack), 10 % page fetches through the capture proxy.
var daemonRound = []string{
	"post", "post", "post", "post", "post", "resend", "post", "post", "post", "get",
	"post", "post", "post", "post", "post", "resend", "post", "post", "post", "get",
}

// stream replays a base event stream in passes under fresh event IDs.
type stream struct {
	base []*event.Event
	span time.Duration
	seed int64
	next int
}

func newStream(seed int64, base []*event.Event) *stream {
	span := base[len(base)-1].Time.Sub(base[0].Time) + time.Hour
	return &stream{base: base, span: span, seed: seed}
}

// batch returns the stream's next n events with their IDs.
func (s *stream) batch(n int) *sentBatch {
	b := &sentBatch{}
	var wire []ingest.WireEvent
	for i := 0; i < n; i++ {
		k := s.next
		s.next++
		ev := *s.base[k%len(s.base)]
		ev.Time = ev.Time.Add(time.Duration(k/len(s.base)) * s.span)
		id := fmt.Sprintf("s%d-%d", s.seed, k)
		b.events = append(b.events, &ev)
		wire = append(wire, ingest.FromEvent(id, &ev))
	}
	body, err := json.Marshal(ingest.Batch{SchemaVersion: ingest.SchemaVersion, Events: wire})
	if err != nil {
		panic(err) // plain structs of strings and times always marshal
	}
	b.body = body
	return b
}

// sentBatch is one ingest batch and its wire body.
type sentBatch struct {
	events []*event.Event
	body   []byte
}

// daemon is one provd process.
type daemon struct {
	cmd   *exec.Cmd
	done  chan struct{}
	admin string // http://host:port of the admin listener
}

// provdClient is the uploader's side: one connection to provd's admin
// listener and one to its proxy.
type provdClient struct {
	bin, dir     string
	listen, adm  string
	admin, proxy *http.Client
	log          *os.File
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func newProvdClient(bin, dir, logPath string) (*provdClient, error) {
	listen, err := freePort()
	if err != nil {
		return nil, err
	}
	adm, err := freePort()
	if err != nil {
		return nil, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	proxyURL, _ := url.Parse("http://" + listen)
	return &provdClient{
		bin: bin, dir: dir, listen: listen, adm: adm, log: log,
		admin: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		proxy: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			Proxy: http.ProxyURL(proxyURL), MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}, nil
}

// start execs provd on c.dir and returns once /readyz answers 200, with
// the time from exec to that answer.
func (c *provdClient) start() (*daemon, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(c.bin, "-dir", c.dir, "-listen", c.listen, "-admin", c.adm,
		"-checkpoint-every", daemonCheckpointEvery, "-scrub-every", daemonScrubEvery)
	cmd.Stdout, cmd.Stderr = c.log, c.log
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), admin: "http://" + c.adm}
	go func() { cmd.Wait(); close(d.done) }()
	for {
		resp, err := c.admin.Get(d.admin + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("provd exited before ready (log: %s)", c.log.Name())
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(t0) > time.Minute {
			d.kill()
			return nil, 0, fmt.Errorf("provd not ready after a minute (log: %s)", c.log.Name())
		}
	}
}

// closeIdle closes the client's idle connections. The uploader's two are
// closed whenever the client turns to the cold provd, and that one's when
// it turns back, so the client never holds more than two (nproc here).
func (c *provdClient) closeIdle() {
	c.admin.CloseIdleConnections()
	c.proxy.CloseIdleConnections()
}

// stop ends provd gracefully: SIGTERM, which drains, flushes captured
// events, checkpoints and closes the store.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		d.kill()
		return fmt.Errorf("provd ignored SIGTERM for a minute")
	}
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("provd exited with %v", d.cmd.ProcessState)
	}
	return nil
}

// kill ends provd with SIGKILL and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// post sends b and returns provd's answer and the round-trip time.
func (c *provdClient) post(d *daemon, b *sentBatch) (ingest.Response, time.Duration, error) {
	var resp ingest.Response
	t0 := time.Now()
	hr, err := c.admin.Post(d.admin+"/ingest", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return resp, 0, err
	}
	body, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return resp, 0, err
	}
	if hr.StatusCode != http.StatusOK {
		return resp, 0, fmt.Errorf("POST /ingest: %s: %s", hr.Status, body)
	}
	return resp, rtt, json.Unmarshal(body, &resp)
}

// get fetches u through provd's capture proxy.
func (c *provdClient) get(u string) error {
	resp, err := c.proxy.Get(u)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("proxied GET %s: %s", u, resp.Status)
	}
	return err
}

// statsCounts reads the node counts off provd's /stats.
func (c *provdClient) statsCounts(d *daemon) (kindCounts, provgraph.ScrubStatus, error) {
	var st struct {
		kindCounts
		Scrub provgraph.ScrubStatus `json:"scrub"`
	}
	resp, err := c.admin.Get(d.admin + "/stats")
	if err != nil {
		return kindCounts{}, st.Scrub, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st.kindCounts, st.Scrub, err
}

// originServer serves the pages the uploader fetches through the proxy.
func originServer() (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprintf(w, "<html><head><title>Origin page %s quarterly report</title></head><body>%s</body></html>",
			filepath.Base(r.URL.Path), r.URL.Path)
	})}
	go srv.Serve(l)
	return srv, "http://" + l.Addr().String(), nil
}

func runDaemon(r *run) error {
	origin, originURL, err := originServer()
	if err != nil {
		return err
	}
	defer origin.Close()

	var (
		setups []float64
		st     *stream
		c      *provdClient
		d      *daemon
	)
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	for i := 0; i < shortSetupReps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("provd%d", i))
		t0 := time.Now()
		g, err := genBrowsing(corpusSeed, daemonBaseDays, false)
		if err != nil {
			return err
		}
		st = newStream(r.seed, g.events)
		if c, err = newProvdClient(r.provd, dir, dir+".log"); err != nil {
			return err
		}
		defer c.log.Close()
		if d, _, err = c.start(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < shortSetupReps-1 {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
	}
	r.e2e["setup_s"] = median(setups)

	// The cold store, on a second provd of its own: warmBatches
	// acknowledged batches checkpointed by a graceful stop, then killBatches
	// more and SIGKILL. The loop pauses killCycles times, evenly spaced;
	// each pause times exec → /readyz on the cold store (a restart that
	// replays the WAL tail sent since its checkpoint, k×killBatches batches
	// at the k-th pause), sends killBatches more and kills it again. The
	// cold provd never lives long enough for a periodic checkpoint, so
	// every run restarts the same stores, and spreading the restarts over
	// the loop keeps one slow moment of the machine from setting them all.
	cdir := filepath.Join(r.dir, "cold")
	cc, err := newProvdClient(r.provd, cdir, cdir+".log")
	if err != nil {
		return err
	}
	defer cc.log.Close()
	var cd *daemon
	defer func() {
		if cd != nil {
			cd.kill()
		}
	}()
	cst := newStream(r.seed, st.base)
	c.closeIdle()
	if cd, _, err = cc.start(); err != nil {
		return err
	}
	warm, err := cc.send(cd, cst, warmBatches)
	if err != nil {
		return err
	}
	if err := cd.stop(); err != nil {
		return err
	}
	cd = nil
	cc.closeIdle()
	coldCycle := func() (time.Duration, error) {
		var up time.Duration
		var err error
		if cd, up, err = cc.start(); err != nil {
			return 0, err
		}
		_, err = cc.send(cd, cst, killBatches)
		cd.kill()
		cd = nil
		cc.closeIdle()
		return up, err
	}
	// A copy of the cold store as checkpointed is opened in-process; each
	// pause also runs one round of the history_queries mix over it.
	qs, err := openQueryStore(r, filepath.Join(r.dir, "query"), cdir, warm)
	if err != nil {
		return err
	}
	defer qs.h.Close()
	// The first restart follows a graceful stop, not a crash: untimed.
	if _, err := coldCycle(); err != nil {
		return err
	}

	// The measured loop runs on a fresh process, so its checkpoint ticks
	// fall at the same offsets into the loop in every run.
	if err := d.stop(); err != nil {
		return err
	}
	if d, _, err = c.start(); err != nil {
		return err
	}
	pid := d.cmd.Process.Pid
	io0, err := readProcIO(pid)
	if err != nil {
		return err
	}
	cpu0, err := readCPU(pid)
	if err != nil {
		return err
	}
	pages := rand.New(rand.NewSource(r.seed)).Perm(proxyPages)
	var (
		acked     []*sentBatch
		fetched   = map[string]int{}
		lat       = latencies{}
		cold      []float64
		paused    time.Duration
		posts     int
		gets      int
		loopFresh int
	)
	rounds := int(r.seconds/time.Second) * daemonRoundsPerSecond
	every := rounds / killCycles
	start := time.Now()
	for n := 0; n < rounds; n++ {
		if n%every == every/2 && len(cold) < killCycles {
			p0 := time.Now()
			c.closeIdle()
			up, err := coldCycle()
			if err != nil {
				return err
			}
			cold = append(cold, ms(up))
			qs.round(r)
			paused += time.Since(p0)
		}
		for i, kind := range daemonRound {
			r.attempted++
			r.tr.newOp()
			var d0 time.Duration
			var err error
			switch kind {
			case "post":
				b := st.batch(batchEvents)
				var resp ingest.Response
				if resp, d0, err = c.post(d, b); err == nil {
					acked = append(acked, b)
					loopFresh += len(b.events)
					if resp.Applied != len(b.events) {
						err = fmt.Errorf("fresh batch of %d: %d applied", len(b.events), resp.Applied)
					}
				}
				posts++
			case "resend":
				b := acked[len(acked)-4]
				var resp ingest.Response
				if resp, d0, err = c.post(d, b); err == nil {
					r.check(checkAllDuplicate(resp.Applied, resp.Duplicates, len(b.events)))
				}
				posts++
			case "get":
				u := fmt.Sprintf("%s/page/%d", originURL, pages[(n*2+i/10)%proxyPages])
				sp := r.tr.begin("capture.ProxyGet", -1)
				t0 := time.Now()
				if err = c.get(u); err == nil {
					d0 = time.Since(t0)
					fetched[u]++
				}
				r.tr.end(sp, 0)
				gets++
			}
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", kind, err)
				continue
			}
			lat.add(kind, d0)
		}
	}
	wall := (time.Since(start) - paused).Seconds()
	if err := requireSamples(lat, "post", "resend", "get"); err != nil {
		return err
	}
	if err := qs.metrics(r); err != nil {
		return err
	}
	r.e2e["cold_open_ms"] = median(cold)
	loopEvents := float64(loopFresh + gets)
	io1, err := readProcIO(pid)
	if err != nil {
		return err
	}
	cpu1, err := readCPU(pid)
	if err != nil {
		return err
	}
	if r.e2e["peak_rss_mb"], err = peakRSSMB(pid); err != nil {
		return err
	}
	_, scrub, err := c.statsCounts(d)
	if err != nil {
		return err
	}
	fmt.Printf("daemon_ingest: base stream %d events; loop acknowledged %d fresh events in %d POSTs and %d re-sends, %d proxied GETs; %d scrub sweeps; %.1f s of loop, %.1f s of pauses\n",
		len(st.base), loopFresh, loopFresh/batchEvents, posts-loopFresh/batchEvents, gets, scrub.Sweeps, wall, paused.Seconds())
	r.layer["storage.read_bytes_per_event"] = (io1.rchar - io0.rchar) / loopEvents
	r.layer["storage.write_bytes_per_event"] = (io1.wchar - io0.wchar) / loopEvents
	r.layer["provd.syscw_per_post"] = (io1.syscw - io0.syscw) / float64(posts)
	r.layer["provd.cpu_us_per_event"] = (cpu1 - cpu0) * 1e6 / loopEvents
	if err := r.latencyMetrics(lat, wall); err != nil {
		return err
	}
	r.e2e["events_per_s"] = float64(loopFresh) / wall
	r.e2e["post_p50_ms"] = median(lat["post"])

	// A graceful stop flushes the captured visits and checkpoints; the
	// store then holds every event sent so far.
	if err := d.stop(); err != nil {
		return err
	}
	if d, _, err = c.start(); err != nil {
		return err
	}
	files, err := sizeStoreFiles(c.dir)
	if err != nil {
		return err
	}
	stored := float64(len(acked)*batchEvents + gets)
	r.e2e["disk_bytes_per_event"] = files.total / stored
	r.layer["storage.wal_bytes_per_event"] = files.wal / stored
	r.layer["storage.checkpoint_bytes_per_event"] = files.checkpoint / stored

	// Durability: acknowledged batches survive SIGKILL, and re-sending
	// them after the restart applies nothing.
	last, err := c.send(d, st, killBatches)
	if err != nil {
		return err
	}
	acked = append(acked, last...)
	d.kill()
	if d, _, err = c.start(); err != nil {
		return err
	}
	for _, b := range last {
		resp, _, err := c.post(d, b)
		if err != nil {
			return err
		}
		r.check(checkAllDuplicate(resp.Applied, resp.Duplicates, len(b.events)))
	}
	got, _, err := c.statsCounts(d)
	if err != nil {
		return err
	}
	ref, err := referenceCounts(r, acked)
	if err != nil {
		return err
	}
	r.check(checkCounts(got, ref, len(fetched), gets))
	if err := d.stop(); err != nil {
		return err
	}
	d = nil
	return daemonStoreChecks(r, c.dir, fetched)
}

// send posts n fresh batches of s to d, each acknowledged in full, and
// returns them.
func (c *provdClient) send(d *daemon, s *stream, n int) ([]*sentBatch, error) {
	var sent []*sentBatch
	for j := 0; j < n; j++ {
		b := s.batch(batchEvents)
		resp, _, err := c.post(d, b)
		if err != nil {
			return nil, err
		}
		if resp.Applied != len(b.events) {
			return nil, fmt.Errorf("fresh batch of %d: %d applied", len(b.events), resp.Applied)
		}
		sent = append(sent, b)
	}
	return sent, nil
}

// referenceCounts applies the acknowledged batches in order to a fresh
// in-process store and returns its node counts.
func referenceCounts(r *run, acked []*sentBatch) (kindCounts, error) {
	s, err := provgraph.OpenWith(filepath.Join(r.dir, "reference"), provgraph.Options{})
	if err != nil {
		return kindCounts{}, err
	}
	defer s.Close()
	for _, b := range acked {
		r.tr.newOp()
		sp := r.tr.begin("provgraph.ApplyBatch", -1)
		err := s.ApplyBatch(b.events)
		r.tr.end(sp, float64(len(b.events)))
		if err != nil {
			return kindCounts{}, err
		}
	}
	if r.tr.on {
		sp := r.tr.begin("provgraph.Checkpoint", -1)
		err := s.Checkpoint()
		r.tr.end(sp, 0)
		if err != nil {
			return kindCounts{}, err
		}
	}
	return countKinds(s.Snapshot()), nil
}

// queryStore is daemon_ingest's in-process copy of the cold store,
// queried one round of the history_queries mix at a time; lineage steps
// are checked against the batches the copy holds. Its queries count
// among the run's attempted and failed operations.
type queryStore struct {
	h   *browserprov.History
	ops []historyQuery
	rec *eventRecord
	rng *rand.Rand
	lat latencies
	rss rssPeak
}

// openQueryStore copies the stopped store at src to dir and opens the
// copy in-process.
func openQueryStore(r *run, dir, src string, acked []*sentBatch) (*queryStore, error) {
	if err := copyTree(src, dir); err != nil {
		return nil, err
	}
	rec, shown := newEventRecord(), map[int]string{}
	for _, b := range acked {
		for _, ev := range b.events {
			rec.observe(ev, shown)
		}
	}
	sp := r.tr.begin("provgraph.OpenWith", -1)
	h, err := browserprov.OpenWithStore(dir, browserprov.StoreOptions{}, browserprov.Options{})
	r.tr.end(sp, 0)
	if err != nil {
		return nil, err
	}
	if r.tr.on {
		if err := replayColdOpen(r.tr, dir); err != nil {
			h.Close()
			return nil, err
		}
	}
	return &queryStore{h: h, ops: historyRound(h), rec: rec, rng: rand.New(rand.NewSource(r.seed)), lat: latencies{}}, nil
}

// round runs one round of the mix.
func (q *queryStore) round(r *run) {
	lat, _ := runRounds(context.Background(), r, q.h, q.ops, q.rec, q.rng, 1, &q.rss)
	for k, xs := range lat {
		q.lat[k] = append(q.lat[k], xs...)
	}
}

// metrics sets the query metrics from every round run.
func (q *queryStore) metrics(r *run) error {
	if err := requireSamples(q.lat, "search", "personalize", "timectx", "lineage", "pql"); err != nil {
		return err
	}
	r.e2e["search_p50_ms"] = median(q.lat["search"])
	r.e2e["personalize_p50_ms"] = median(q.lat["personalize"])
	r.e2e["timectx_p50_ms"] = median(q.lat["timectx"])
	r.e2e["lineage_p50_us"] = median(q.lat["lineage"]) * 1e3
	return nil
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}

// daemonStoreChecks opens the stopped daemon's store in-process: every
// proxied page must be there with one visit per fetch, and the graph
// must be acyclic.
func daemonStoreChecks(r *run, dir string, fetched map[string]int) error {
	h, err := browserprov.OpenWithStore(dir, browserprov.StoreOptions{}, browserprov.Options{})
	if err != nil {
		return err
	}
	defer h.Close()
	sn := h.View().Snapshot()
	visits := map[string]int{}
	for u := range fetched {
		visits[u] = -1
		if p, ok := sn.PageByURL(u); ok {
			visits[u] = sn.VisitCount(p.ID)
		}
	}
	r.check(checkProxyVisits(fetched, visits))
	r.check(checkDAG(h.Graph().VerifyDAG()))
	return nil
}

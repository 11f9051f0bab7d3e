package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"browserprov"
	"browserprov/internal/event"
	"browserprov/internal/provgraph"
	"browserprov/internal/shardmap"
)

const (
	// tenants is several times tenantCap, the shard map's MaxOpen: the
	// working set does not fit the map's cache of open stores.
	tenants   = 600
	tenantCap = 100
	// tenantEvents seed each tenant's history; loop writes add
	// tenantBatch more at a time.
	tenantEvents = 40
	tenantBatch  = 8
	// tenantZipf skews which tenant each operation touches.
	tenantZipf = 1.1
	// coldProbes distinct tenants are reopened for cold_open_ms.
	coldProbes = 100
	// The loop runs seconds × tenantRoundsPerSecond whole rounds, about
	// -seconds long on the reference box (README), so every run writes the
	// same events and ends on stores of the same size.
	tenantRoundsPerSecond = 20
)

// tenantRound is one round of the tenant_mixed client: 28 contextual
// searches, 5 personalize, 3 time-contextual, 3 lineage, 10
// ApplyBatchDedup writes and 1 checkpoint of the tenant touched
// (56/10/6/6/20/2 %).
var tenantRound = func() []string {
	var ops []string
	for _, k := range []struct {
		kind string
		n    int
	}{{"search", 28}, {"personalize", 5}, {"timectx", 3}, {"lineage", 3}, {"write", 10}, {"checkpoint", 1}} {
		for i := 0; i < k.n; i++ {
			ops = append(ops, k.kind)
		}
	}
	return ops
}()

// tenantState generates one tenant's browsing on hosts only it uses
// (<tenant>-<site>.example) with titles from a vocabulary all tenants
// share, and tallies the visits it has generated.
type tenantState struct {
	id     string
	rng    *rand.Rand
	vocab  []string
	clock  time.Time
	cur    string
	seq    int
	visits int
	words  []string // recent title words, for queries
	saves  []string // download save paths, for lineage queries
}

func newTenantState(seed int64, i int, vocab []string) *tenantState {
	return &tenantState{
		id:    fmt.Sprintf("t%04d", i),
		rng:   rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
		vocab: vocab,
		clock: time.Date(2009, 1, 1, 9, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
	}
}

func (t *tenantState) word() string { return t.vocab[t.rng.Intn(len(t.vocab))] }

// next generates the tenant's next n events and their IDs: link-following
// and typed visits, searches, and a download every tenth event.
func (t *tenantState) next(n int) ([]string, []*event.Event) {
	ids := make([]string, 0, n)
	evs := make([]*event.Event, 0, n)
	for len(evs) < n {
		t.seq++
		t.clock = t.clock.Add(time.Duration(5+t.rng.Intn(60)) * time.Second)
		ev := &event.Event{Time: t.clock, Tab: 1}
		switch k := t.rng.Intn(10); {
		case t.seq%10 == 5 && t.cur != "":
			w := t.word()
			ev.Type, ev.URL, ev.Referrer = event.TypeDownload, fmt.Sprintf("http://%s-files.example/%s.bin", t.id, w), t.cur
			ev.SavePath, ev.ContentType = fmt.Sprintf("/home/%s/%s-%d.bin", t.id, w, t.seq), "application/octet-stream"
			t.saves = append(t.saves, ev.SavePath)
		case k == 0 && t.cur != "":
			terms := t.word() + " " + t.word()
			ev.Type, ev.Terms = event.TypeSearch, terms
			ev.URL = fmt.Sprintf("http://%s-search.example/?q=%s", t.id, strings.ReplaceAll(terms, " ", "+"))
		default:
			a, b, c := t.word(), t.word(), t.word()
			ev.Type, ev.Title = event.TypeVisit, a+" "+b+" "+c
			ev.URL = fmt.Sprintf("http://%s-s%d.example/%s-%d", t.id, t.rng.Intn(4), a, t.rng.Intn(8))
			ev.Transition = event.TransTyped
			if k > 2 && t.cur != "" {
				ev.Referrer, ev.Transition = t.cur, event.TransLink
			}
			t.cur = ev.URL
			t.visits++
			t.words = append(t.words, a, b, c)
			if len(t.words) > 30 {
				t.words = t.words[3:]
			}
		}
		evs = append(evs, ev)
		ids = append(ids, fmt.Sprintf("%s-e%d", t.id, t.seq))
	}
	return ids, evs
}

// vocabulary makes n pronounceable words from seed.
func vocabulary(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	syl := []string{"ka", "lo", "mi", "ne", "su", "ta", "ri", "po", "de", "va", "zu", "be", "fi", "go", "ha", "ju"}
	seen := map[string]bool{}
	var out []string
	for len(out) < n {
		w := ""
		for k := 2 + rng.Intn(2); k > 0; k-- {
			w += syl[rng.Intn(len(syl))]
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// buildTenants creates every tenant's checkpointed history under root
// and returns the generators, positioned after what they wrote.
func buildTenants(r *run, root string) ([]*tenantState, error) {
	vocab := vocabulary(corpusSeed, 400)
	sh, err := browserprov.OpenSharded(root, browserprov.ShardedOptions{MaxOpen: tenantCap})
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	states := make([]*tenantState, tenants)
	for i := range states {
		states[i] = newTenantState(corpusSeed, i, vocab)
		_, evs := states[i].next(tenantEvents)
		t, err := sh.Tenant(states[i].id)
		if err != nil {
			return nil, err
		}
		if err = t.ApplyBatch(evs); err == nil {
			err = t.Checkpoint()
		}
		t.Release()
		if err != nil {
			return nil, err
		}
	}
	return states, sh.Close()
}

func runTenants(r *run) error {
	ctx := context.Background()
	var (
		states []*tenantState
		root   string
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		root = filepath.Join(r.dir, fmt.Sprintf("shards%d", i))
		t0 := time.Now()
		var err error
		if states, err = buildTenants(r, root); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = median(setups)

	debug.FreeOSMemory()
	var rss rssPeak
	sh, err := browserprov.OpenSharded(root, browserprov.ShardedOptions{MaxOpen: tenantCap})
	if err != nil {
		return err
	}
	defer sh.Close()
	m := sh.Map()
	rng := rand.New(rand.NewSource(r.seed))
	perm := rng.Perm(tenants)
	zipf := rand.NewZipf(rng, tenantZipf, 1, tenants-1)

	io0, err := readProcIO(os.Getpid())
	if err != nil {
		return err
	}
	ev0 := m.Stats().Evictions
	var (
		lat          = latencies{}
		loopEvents   int
		hits, misses int
	)
	rounds := int(r.seconds/time.Second) * tenantRoundsPerSecond
	start := time.Now()
	for n := 0; n < rounds; n++ {
		for _, i := range rng.Perm(len(tenantRound)) {
			kind := tenantRound[i]
			r.attempted++
			t := states[perm[zipf.Uint64()]]
			d, miss, err := tenantOp(ctx, r, m, t, kind, rng)
			if err != nil {
				r.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s on %s: %v\n", kind, t.id, err)
				continue
			}
			if miss {
				misses++
			} else {
				hits++
			}
			if kind == "write" {
				loopEvents += tenantBatch
			}
			lat.add(kind, d)
			rss.sample()
		}
	}
	wall := time.Since(start).Seconds()
	io1, err := readProcIO(os.Getpid())
	if err != nil {
		return err
	}
	if err := requireSamples(lat, "search", "personalize", "timectx", "lineage", "write", "checkpoint"); err != nil {
		return err
	}
	if err := r.latencyMetrics(lat, wall); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = rss.max
	r.e2e["events_per_s"] = float64(loopEvents) / wall
	r.e2e["post_p50_ms"] = median(lat["write"])
	r.layer["storage.read_bytes_per_event"] = (io1.rchar - io0.rchar) / float64(loopEvents)
	r.layer["storage.write_bytes_per_event"] = (io1.wchar - io0.wchar) / float64(loopEvents)
	if r.tr.on {
		r.layer["shardmap.hit_ratio"] = float64(hits) / float64(hits+misses)
		r.layer["shardmap.evictions_per_1k_ops"] = float64(m.Stats().Evictions-ev0) * 1000 / float64(len(lat["op"]))
	}
	if err := sh.Close(); err != nil {
		return err
	}
	files, err := sizeStoreFiles(root)
	if err != nil {
		return err
	}
	total := float64(tenants*tenantEvents + loopEvents)
	r.e2e["disk_bytes_per_event"] = files.total / total
	r.layer["storage.wal_bytes_per_event"] = files.wal / total
	r.layer["storage.checkpoint_bytes_per_event"] = files.checkpoint / total

	return tenantColdAndTallies(ctx, r, root, states, rng)
}

// tenantOp runs one operation of kind against tenant t through the shard
// map and checks its result. It returns the operation's time and whether
// the lookup had to open the tenant's store (known only when tracing,
// from the map's open counters; false otherwise).
func tenantOp(ctx context.Context, r *run, m *shardmap.Map, t *tenantState, kind string, rng *rand.Rand) (time.Duration, bool, error) {
	tr := r.tr
	tr.newOp()
	root := tr.begin("op."+kind, -1)
	defer tr.end(root, 0)
	var opens uint64
	if tr.on {
		st := m.Stats()
		opens = st.Opens + st.Reopens
	}
	t0 := time.Now()
	sp := tr.begin("shardmap.Get", root)
	h, err := m.Get(t.id)
	tr.end(sp, 0)
	if err != nil {
		return 0, false, err
	}
	defer h.Release()
	miss := false
	if tr.on {
		st := m.Stats()
		miss = st.Opens+st.Reopens != opens
		tr.rename(sp, map[bool]string{true: "shardmap.Get/miss", false: "shardmap.Get/hit"}[miss])
	}
	q := t.words[rng.Intn(len(t.words))]
	var urls []string
	var result error
	if kind != "write" && kind != "checkpoint" {
		sp = tr.begin("query.Engine.View", root)
		v := h.View()
		tr.end(sp, 0)
		switch kind {
		case "search":
			sp = tr.begin("query.View.Search", root)
			hits, _, err := v.Search(ctx, q, searchK)
			tr.end(sp, 0)
			if err != nil {
				return 0, miss, err
			}
			result = checkRanked(pageScores(hits), searchK)
			for _, h := range hits {
				urls = append(urls, h.URL)
			}
		case "personalize":
			sp = tr.begin("query.View.Personalize", root)
			terms, _, err := v.Personalize(ctx, q, searchK)
			tr.end(sp, 0)
			if err != nil {
				return 0, miss, err
			}
			result = checkRanked(termWeights(terms), searchK)
		case "timectx":
			sp = tr.begin("query.View.TimeContextualSearch", root)
			hits, _, err := v.TimeContextualSearch(ctx, q, t.words[rng.Intn(len(t.words))], searchK)
			tr.end(sp, 0)
			if err != nil {
				return 0, miss, err
			}
			result = checkRanked(timeScores(hits), searchK)
			for _, h := range hits {
				urls = append(urls, h.URL)
			}
		case "lineage":
			sp = tr.begin("query.View.DownloadLineage", root)
			save := t.saves[rng.Intn(len(t.saves))]
			lin, _, err := v.DownloadLineageByPath(ctx, save)
			tr.end(sp, 0)
			if err != nil {
				return 0, miss, err
			}
			result = checkLineageFound(lin, save)
			for _, n := range lin.Path {
				if n.URL != "" {
					urls = append(urls, n.URL)
				}
			}
		}
		d := time.Since(t0)
		r.check(result)
		r.check(checkOwnHosts(t.id, urls))
		if tr.on && kind != "lineage" {
			replaySearch(tr, v, q, sp, kind == "search")
		}
		return d, miss, nil
	}
	if kind == "write" {
		ids, evs := t.next(tenantBatch)
		sp = tr.begin("provgraph.ApplyBatch", root)
		applied, err := h.ApplyBatchDedup(ids, evs)
		tr.end(sp, float64(len(evs)))
		if err != nil {
			return 0, miss, err
		}
		for i, ok := range applied {
			if !ok {
				return 0, miss, fmt.Errorf("fresh event %s reported duplicate", ids[i])
			}
		}
		return time.Since(t0), miss, nil
	}
	sp = tr.begin("provgraph.Checkpoint", root)
	err = h.Checkpoint()
	tr.end(sp, 0)
	return time.Since(t0), miss, err
}

// tenantColdAndTallies reopens the shard root cold: coldProbes distinct
// tenants are each opened and searched (cold_open_ms), then every
// tenant's visit count is checked against what the harness applied.
func tenantColdAndTallies(ctx context.Context, r *run, root string, states []*tenantState, rng *rand.Rand) error {
	sh, err := browserprov.OpenSharded(root, browserprov.ShardedOptions{MaxOpen: tenantCap})
	if err != nil {
		return err
	}
	defer sh.Close()
	m := sh.Map()
	var cold []float64
	for _, i := range rng.Perm(tenants)[:coldProbes] {
		t := states[i]
		if r.tr.on {
			if err := replayTenantOpen(r.tr, root, t.id); err != nil {
				return err
			}
		}
		t0 := time.Now()
		h, err := m.Get(t.id)
		if err != nil {
			return err
		}
		hits, _, err := h.View().Search(ctx, t.words[0], searchK)
		cold = append(cold, ms(time.Since(t0)))
		h.Release()
		if err != nil {
			return err
		}
		urls := make([]string, len(hits))
		for k, h := range hits {
			urls[k] = h.URL
		}
		r.check(checkOwnHosts(t.id, urls))
	}
	r.e2e["cold_open_ms"] = median(cold)

	got, want := map[string]int{}, map[string]int{}
	for _, t := range states {
		h, err := m.Get(t.id)
		if err != nil {
			return err
		}
		got[t.id] = countKinds(h.View().Snapshot()).Visits
		want[t.id] = t.visits
		h.Release()
	}
	r.check(checkTallies(got, want))
	return nil
}

// replayTenantOpen times provgraph.OpenWith (and, inside it, the section
// mmap and text warm start) on a tenant's store while the map has it
// closed.
func replayTenantOpen(tr *tracer, root, tenant string) error {
	dirs, err := filepath.Glob(filepath.Join(root, "*", tenant))
	if err != nil || len(dirs) != 1 {
		return fmt.Errorf("tenant %s: store directory not found under %s", tenant, root)
	}
	sp := tr.begin("provgraph.OpenWith", -1)
	s, err := provgraph.OpenWith(dirs[0], provgraph.Options{})
	tr.end(sp, 0)
	if err != nil {
		return err
	}
	if err := s.Close(); err != nil {
		return err
	}
	return replayColdOpen(tr, dirs[0])
}

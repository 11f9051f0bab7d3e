// Command provd is the capture daemon: an HTTP forward proxy that
// records browsing provenance while relaying traffic, beside an admin
// listener serving GET /healthz, GET /readyz, POST /ingest (idempotent
// batches, see internal/ingest) and GET /stats:
//
//	provd -dir ./history -listen 127.0.0.1:8888 &
//	curl -x http://127.0.0.1:8888 http://example.com/
//	curl http://127.0.0.1:8889/stats
//
// One shell runs every mode. It binds -admin and -listen first and logs
// each bound address ("provd: proxy listener on ...", so port 0 works);
// a taken address exits non-zero at once. Captured exchanges are
// group-committed 64 at a time, flushed at least every -flush. The
// X-Prov-Tenant header picks the tenant and never reaches the origin.
// HTTPS CONNECT tunnels are relayed unobserved. SIGTERM drains the
// proxy, then ingest, closes the admin listener, flushes the captured
// events, writes a final checkpoint and exits 0.
//
// A backend is what differs between modes. -dir alone is one store in
// that directory, whatever the tenant, which also leads replication.
// -shard-root keeps each tenant's store under the root, at most
// -shard-cap open at once, and serves /stats/<tenant>. -follow with -dir
// is a read-only replica of a leader's admin endpoint: it binds no
// proxy, answers /ingest with 503 and a Location naming the leader, and
// goes not-ready once replication lag exceeds -max-lag.
//
//	provd -shard-root ./shards -listen 127.0.0.1:8888 &
//	curl -x http://127.0.0.1:8888 -H 'X-Prov-Tenant: alice' http://example.com/
//	provd -follow http://127.0.0.1:8889 -dir ./replica -admin 127.0.0.1:9889 &
package main

import (
	"flag"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"browserprov/internal/ingest"
	"browserprov/internal/provgraph"
	"browserprov/internal/replica"
	"browserprov/internal/shardmap"
)

func main() {
	dir := flag.String("dir", "", "provenance store directory (single-tenant mode)")
	shardRoot := flag.String("shard-root", "", "multi-tenant shard root directory (enables sharded mode; exclusive with -dir)")
	shardCap := flag.Int("shard-cap", shardmap.DefaultMaxOpen, "max concurrently open tenant stores in sharded mode")
	defaultTenant := flag.String("default-tenant", "default",
		"tenant for capture requests without an "+ingest.TenantHeader+" header")
	listen := flag.String("listen", "127.0.0.1:8888", "proxy listen address")
	admin := flag.String("admin", "127.0.0.1:8889", "admin (healthz/stats) listen address; empty disables")
	searchHosts := flag.String("search-hosts", "search.example,www.google.com,duckduckgo.com,www.bing.com",
		"comma-separated hosts whose q= parameter is a web search")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Minute,
		"periodic background checkpoint interval (0 disables; capture is never blocked for the dump)")
	scrubEvery := flag.Duration("scrub-every", time.Minute,
		"online integrity-scrub sweep interval: checkpoint section CRCs and WAL frame CRCs re-verified in background slices (0 disables)")
	flushEvery := flag.Duration("flush", time.Second, "max delay before buffered captured events are group-committed")
	useMmap := flag.Bool("mmap", true, "serve the checkpoint off a file mapping (false reads it onto the heap)")
	follow := flag.String("follow", "",
		"leader base URL; run as a read-only WAL-shipping replica of it (requires -dir, exclusive with -shard-root)")
	maxLag := flag.Duration("max-lag", 15*time.Second,
		"replication lag above which a follower's /readyz answers 503")
	flag.Parse()
	if (*dir == "") == (*shardRoot == "") {
		log.Fatal("provd: exactly one of -dir (single-tenant) or -shard-root (sharded) is required")
	}
	if *follow != "" && *shardRoot != "" {
		log.Fatal("provd: -follow replicates a single store; it is exclusive with -shard-root")
	}

	// Catch SIGTERM before anything can answer a probe: a supervisor may
	// stop the daemon as soon as it answers, and that stop must drain and
	// checkpoint, not kill. One sent during startup acts once it is done.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	cfg := shellConfig{
		sigc:            sigc,
		dir:             *dir + *shardRoot, // exactly one is set
		searchHosts:     strings.Split(*searchHosts, ","),
		flushEvery:      *flushEvery,
		checkpointEvery: *checkpointEvery,
		scrubEvery:      *scrubEvery,
	}
	if *admin != "" {
		cfg.adminLn = bind("admin", *admin)
	}
	if *follow == "" {
		cfg.proxyLn = bind("proxy", *listen)
	}

	opts := provgraph.Options{SyncEvery: captureSyncEvery, NoMmap: !*useMmap}
	var b backend
	var err error
	switch {
	case *follow != "":
		b, err = newFollowerBackend(replica.FollowerOptions{
			Dir: *dir, LeaderURL: strings.TrimRight(*follow, "/"),
			CheckpointEvery: *checkpointEvery, Store: opts, Logf: log.Printf,
		}, *maxLag)
	case *shardRoot != "":
		b, err = openShards(*shardRoot, *shardCap, *defaultTenant, opts)
	default:
		b, err = openStore(*dir, opts)
	}
	if err != nil {
		log.Fatalf("provd: %v", err)
	}
	newShell(b, cfg).serve()
}

// bind listens on addr before any mode starts: probes that can never
// answer leave a supervisor waiting on /readyz for nothing, so a taken
// address is a startup failure, not a warning. The bound address is
// logged, so ":0" picks a free port without a probe-then-bind race.
func bind(name, addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("provd: %s listener: %v", name, err)
	}
	log.Printf("provd: %s listener on %s", name, ln.Addr())
	return ln
}

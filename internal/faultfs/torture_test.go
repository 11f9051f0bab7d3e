package faultfs_test

// The kill-recover torture loop: a child process (this test binary
// re-exec'd, see TestMain) hammers a store with keyed batches, queries
// and checkpoints; the parent SIGKILLs it at a seeded-random moment,
// then proves the recovery invariants — the store reopens (repairing
// from the retained checkpoint generation if the kill tore a commit),
// a full integrity scrub comes back clean, and re-delivering every
// batch shows exactly-once semantics: nothing the child acked before
// death applies twice, and the final graph matches a store that saw
// each batch once over a perfect run. A third of the iterations also
// rot a byte of the newest checkpoint before recovery, forcing the
// prev-generation + WAL-replay repair path.
//
// The iteration count scales with the environment: 4 under -short,
// 10 by default, TORTURE_ITERS=<n> to pin (CI uses a small count; the
// acceptance run is TORTURE_ITERS=50 with -race). FAULT_SEED pins the
// whole schedule.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/faultfs"
	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

const (
	tortureChildEnv = "TORTURE_CHILD"
	tortureDirEnv   = "TORTURE_DIR"
	tortureItersEnv = "TORTURE_ITERS"
	tortureBatchLen = 8
)

func TestMain(m *testing.M) {
	if os.Getenv(tortureChildEnv) == "1" {
		tortureChild()
	}
	os.Exit(m.Run())
}

// tortureStoreOpts is shared by the child and the recovering parent:
// every batch is durable when acked, and the previous checkpoint
// generation is retained so a torn or rotted current one is repairable.
func tortureStoreOpts() provgraph.Options {
	return provgraph.Options{SyncEvery: 1, RetainPrevCheckpoint: true}
}

// tortureBatch is the deterministic workload schedule: batch b is the
// same events with the same dedup IDs in every process that builds it,
// which is what lets the parent re-deliver the child's history verbatim.
func tortureBatch(b int) (ids []string, evs []*event.Event) {
	base := time.Unix(1750000000+int64(b)*1000, 0)
	for i := 0; i < tortureBatchLen; i++ {
		ids = append(ids, fmt.Sprintf("torture-%05d-%02d", b, i))
		evs = append(evs, &event.Event{
			Time: base.Add(time.Duration(i) * time.Second), Type: event.TypeVisit, Tab: 1,
			URL:   fmt.Sprintf("http://torture.example/b%d/p%d", b, i%5),
			Title: fmt.Sprintf("torture %d/%d", b, i), Transition: event.TransLink,
		})
	}
	return ids, evs
}

// tortureChild is the re-exec'd workload process. It applies the batch
// schedule forever — checkpointing every fifth batch, with a query
// goroutine pinning views throughout — and reports each durable batch
// on stdout. It only ever exits by being killed (or on error, status 2).
func tortureChild() {
	store, err := provgraph.OpenWith(os.Getenv(tortureDirEnv), tortureStoreOpts())
	if err != nil {
		fmt.Fprintln(os.Stderr, "torture child open:", err)
		os.Exit(2)
	}
	eng := query.NewEngine(store, query.Options{})
	go func() { // read load: keep a view pinned across kills and checkpoints
		for {
			v := eng.View()
			if v.Err() != nil {
				return
			}
		}
	}()
	for b := 0; ; b++ {
		ids, evs := tortureBatch(b)
		if _, err := store.ApplyBatchDedup(ids, evs); err != nil {
			fmt.Fprintf(os.Stderr, "torture child batch %d: %v\n", b, err)
			os.Exit(2)
		}
		// Printed only after the durable ack: every batch the parent sees
		// reported must survive the kill.
		fmt.Printf("batch %d\n", b)
		if b%5 == 4 {
			if err := store.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "torture child checkpoint: %v\n", err)
				os.Exit(2)
			}
		}
	}
}

// runChildAndKill runs one child lifetime: start, let it reach a
// seeded-random amount of progress, SIGKILL it at a further random
// offset, and return the last batch it reported as durable.
func runChildAndKill(t *testing.T, rng *rand.Rand, dir string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), tortureChildEnv+"=1", tortureDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var last atomic.Int64
	last.Store(-1)
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			var b int
			if _, err := fmt.Sscanf(sc.Text(), "batch %d", &b); err == nil {
				last.Store(int64(b))
			}
		}
	}()
	// Progress gate, then a random extra beat so the kill lands anywhere:
	// mid-append, mid-fsync, mid-checkpoint-commit.
	minBatches := int64(rng.Intn(8))
	deadline := time.Now().Add(20 * time.Second)
	for last.Load() < minBatches && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if last.Load() < 0 {
		cmd.Process.Kill() //nolint:errcheck
		cmd.Wait()         //nolint:errcheck
		t.Fatal("torture child made no progress before the deadline")
	}
	time.Sleep(time.Duration(rng.Intn(30)) * time.Millisecond)
	cmd.Process.Kill() //nolint:errcheck // SIGKILL: no cleanup, that's the point
	cmd.Wait()         //nolint:errcheck // "signal: killed" is the expected verdict
	<-scanDone
	return int(last.Load())
}

func tortureIters(t *testing.T) int {
	if v := os.Getenv(tortureItersEnv); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad %s=%q", tortureItersEnv, v)
		}
		return n
	}
	if testing.Short() {
		return 4
	}
	return 10
}

func TestTortureKillRecover(t *testing.T) {
	rng := rand.New(rand.NewSource(faultfs.Seed(t.Logf)))
	iters := tortureIters(t)
	root := t.TempDir()
	for it := 0; it < iters; it++ {
		dir := filepath.Join(root, fmt.Sprintf("it%03d", it))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		lastAcked := runChildAndKill(t, rng, dir)

		// A third of the lifetimes die twice: the kill, then bit rot in
		// the newest checkpoint. Only when a previous generation exists —
		// without one there is nothing to repair from and "unrepairable"
		// is the correct (separately tested) outcome, not a recovery.
		rotted := false
		if rng.Intn(3) == 0 {
			snaps, err := filepath.Glob(filepath.Join(dir, "provgraph.snap.*"))
			if err != nil {
				t.Fatal(err)
			}
			// A kill inside a checkpoint can leave the next generation's
			// file created but empty; it holds no byte to rot.
			snaps = slices.DeleteFunc(snaps, func(p string) bool {
				fi, err := os.Stat(p)
				return err == nil && fi.Size() == 0
			})
			if len(snaps) >= 2 {
				sort.Strings(snaps)
				off, err := faultfs.BitRot(snaps[len(snaps)-1], rng)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("iter %d: rotted %s at offset %d", it, filepath.Base(snaps[len(snaps)-1]), off)
				if _, err := provgraph.RepairStore(dir); err != nil {
					t.Fatalf("iter %d: repair after rot: %v", it, err)
				}
				rotted = true
			}
		}

		store, err := provgraph.OpenWith(dir, tortureStoreOpts())
		if err != nil {
			// The kill can tear a checkpoint commit; the retained
			// generation makes that repairable, and open must then succeed.
			t.Logf("iter %d: open after kill failed (%v); repairing", it, err)
			if _, rerr := provgraph.RepairStore(dir); rerr != nil {
				t.Fatalf("iter %d: repair: %v (open error was %v)", it, rerr, err)
			}
			if store, err = provgraph.OpenWith(dir, tortureStoreOpts()); err != nil {
				t.Fatalf("iter %d: reopen after repair: %v", it, err)
			}
		}
		if err := store.Scrub(0, 0); err != nil {
			t.Fatalf("iter %d (rotted=%v): scrub after recovery: %v", it, rotted, err)
		}

		// Re-deliver the whole schedule, one batch past anything the
		// child can have started. Acked batches must come back as pure
		// duplicates — an applied event there is a lost durable write.
		total := lastAcked + 2
		for b := 0; b < total; b++ {
			ids, evs := tortureBatch(b)
			applied, err := store.ApplyBatchDedup(ids, evs)
			if err != nil {
				t.Fatalf("iter %d: redeliver batch %d: %v", it, b, err)
			}
			if b <= lastAcked {
				for i, a := range applied {
					if a {
						t.Fatalf("iter %d: batch %d event %d re-applied — acked write was lost (rotted=%v)", it, b, i, rotted)
					}
				}
			}
		}
		got := store.Snapshot().Stats()
		if err := store.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", it, err)
		}
		want := referenceTortureStats(t, total)
		if got.Nodes != want.Nodes || got.Edges != want.Edges {
			t.Fatalf("iter %d: recovered store has %d nodes/%d edges, exactly-once reference has %d/%d",
				it, got.Nodes, got.Edges, want.Nodes, want.Edges)
		}
		t.Logf("iter %d: killed after batch %d, rotted=%v, converged at %d nodes/%d edges",
			it, lastAcked, rotted, got.Nodes, got.Edges)
	}
}

// referenceTortureStats builds the exactly-once reference: a fresh
// store that sees batches 0..total-1 each exactly once.
func referenceTortureStats(t *testing.T, total int) provgraph.Stats {
	t.Helper()
	ref, err := provgraph.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for b := 0; b < total; b++ {
		ids, evs := tortureBatch(b)
		if _, err := ref.ApplyBatchDedup(ids, evs); err != nil {
			t.Fatal(err)
		}
	}
	return ref.Snapshot().Stats()
}

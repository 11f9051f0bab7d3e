package provgraph

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"browserprov/internal/event"
	"browserprov/internal/storage"
)

// applyAll feeds evs through per-event Apply.
func applyAll(t *testing.T, s *Store, evs []*event.Event) {
	t.Helper()
	for _, ev := range evs {
		if err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointV2RoundTrip: a checkpoint plus WAL tail must
// reopen into exactly the store the full event replay builds — and the
// reopened store must come up already sealed, with the tail overlay
// machinery (dirty tracking, reseals, retention) fully functional on
// top of the bulk-loaded epoch.
func TestCheckpointV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	evs := genIngestEvents(300, t0)
	s := openStore(t, dir)
	applyAll(t, s, evs[:200])
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, s, evs[200:]) // WAL tail over the checkpoint
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	ref := openStore(t, t.TempDir())
	defer ref.Close()
	applyAll(t, ref, evs)

	re := openStore(t, dir)
	defer re.Close()
	if re.sealedMaxNow() == 0 {
		t.Fatal("checkpoint-loaded store did not come up sealed")
	}
	storesMustMatch(t, ref, re)
	snapMustMatchStore(t, re, re.Snapshot())
	if cyc := re.VerifyDAG(); cyc != nil {
		t.Fatalf("cycle after checkpoint recovery: %v", cyc)
	}

	// The bulk-loaded store keeps working as a live store: new events
	// (including mutations of sealed nodes), a forced reseal over the
	// loaded epoch, and retention.
	more := genIngestEvents(150, t0.Add(5000*time.Minute))
	applyAll(t, re, more)
	applyAll(t, ref, more)
	storesMustMatch(t, ref, re)
	snapMustMatchStore(t, re, re.Snapshot())
	re.ForceReseal()
	re.WaitReseal()
	snapMustMatchStore(t, re, re.Snapshot())
	if _, err := re.ExpireBefore(t0.Add(100 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	snapMustMatchStore(t, re, re.Snapshot())
}

// TestCheckpointV2NoTailSealed: with no WAL tail, the first snapshot
// after an open is completely flat — the checkpoint IS the sealed
// epoch and nothing needs capturing.
func TestCheckpointV2NoTailSealed(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(120, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	sn := re.Snapshot()
	if sn.sealed == nil || sn.base != nil {
		t.Fatal("first snapshot after open is not flat-sealed")
	}
	if len(sn.tailNodes) != 0 || len(sn.tailOut) != 0 {
		t.Fatalf("tail not empty after tail-less open: %d nodes, %d adj",
			len(sn.tailNodes), len(sn.tailOut))
	}
	snapMustMatchStore(t, re, sn)
}

// TestCheckpointV1V2Equivalence (named for the record-dump comparison
// it once made) is the checkpoint round trip in both versioning modes:
// a checkpoint plus WAL tail must reopen into exactly the store a full
// event replay builds, and identical follow-on ingest must keep the two
// identical.
func TestCheckpointV1V2Equivalence(t *testing.T) {
	for _, mode := range []VersioningMode{VersionNodes, VersionEdges} {
		t.Run(mode.String(), func(t *testing.T) {
			evs := genIngestEvents(250, t0)
			open := func(dir string) *Store {
				s, err := OpenWith(dir, Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			dir := t.TempDir()
			s := open(dir)
			applyAll(t, s, evs[:180])
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			applyAll(t, s, evs[180:])
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			ref := open(t.TempDir())
			defer ref.Close()
			applyAll(t, ref, evs)
			re := open(dir)
			defer re.Close()
			if re.Mode() != mode {
				t.Fatalf("reopened mode %v, want %v", re.Mode(), mode)
			}
			storesMustMatch(t, ref, re)
			snapMustMatchStore(t, re, re.Snapshot())
			// The loaded assembly state (tab cursors, pending joins) steers
			// how the next events fold in.
			more := genIngestEvents(60, t0.Add(7000*time.Minute))
			applyAll(t, ref, more)
			applyAll(t, re, more)
			storesMustMatch(t, ref, re)
			snapMustMatchStore(t, re, re.Snapshot())
		})
	}
}

// TestCheckpointCrashRecovery extends the torn-write suite to the
// checkpoint path: a crash mid-checkpoint-write leaves a partial
// sectioned file at the next generation's path with the metadata still
// naming the previous checkpoint — reopening must recover from the
// previous checkpoint plus the WAL with no data loss, and the next
// checkpoint must succeed over the debris.
func TestCheckpointCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := genIngestEvents(200, t0)
	s := openStore(t, dir)
	applyAll(t, s, evs[:120])
	if err := s.Checkpoint(); err != nil { // gen 1, durable
		t.Fatal(err)
	}
	applyAll(t, s, evs[120:]) // WAL tail at risk across the "crash"
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn gen-2 write: a prefix of a valid sectioned file
	// (header intact, sections cut mid-frame) that never reached the
	// metadata swap.
	gen1 := filepath.Join(dir, "provgraph.snap.000001")
	full, err := os.ReadFile(gen1)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "provgraph.snap.000002")
	if err := os.WriteFile(torn, full[:len(full)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	ref := openStore(t, t.TempDir())
	defer ref.Close()
	applyAll(t, ref, evs)

	re := openStore(t, dir)
	storesMustMatch(t, ref, re)
	if cyc := re.VerifyDAG(); cyc != nil {
		t.Fatalf("cycle after crash recovery: %v", cyc)
	}
	// The next checkpoint claims the gen-2 path, truncating the debris.
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("checkpoint over torn debris: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openStore(t, dir)
	defer re2.Close()
	storesMustMatch(t, ref, re2)
}

// TestBackgroundCheckpointNonBlocking is the writers-not-blocked
// contract: ApplyBatch keeps completing while a checkpoint dump is in
// flight (the dump window is held open deterministically via the text
// source hook, which runs in the off-lock phase), per-apply latency
// stays bounded by the capture, pinned snapshots stay byte-identical
// across the swap, and the checkpoint that raced the writers still
// recovers the full history.
func TestBackgroundCheckpointNonBlocking(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	base := genIngestEvents(2000, t0)
	if err := s.ApplyBatch(base); err != nil {
		t.Fatal(err)
	}
	s.WaitReseal()

	// Pin a snapshot and record its observable state.
	sn := s.Snapshot()
	type probe struct {
		node Node
		out  []NodeID
		in   []NodeID
	}
	probes := make(map[NodeID]probe)
	for id := NodeID(1); id <= sn.MaxNodeID(); id += 7 {
		if n, ok := sn.NodeByID(id); ok {
			probes[id] = probe{node: n,
				out: append([]NodeID(nil), sn.Out(id)...),
				in:  append([]NodeID(nil), sn.In(id)...)}
		}
	}

	// The text source runs during the off-lock dump phase: signal entry
	// and hold the window open long enough for writers to prove they
	// can commit inside it.
	dumping := make(chan struct{})
	s.SetTextCheckpointSource(func(maxDoc NodeID) ([]byte, NodeID) {
		close(dumping)
		time.Sleep(150 * time.Millisecond)
		return nil, 0
	})
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- s.Checkpoint() }()
	<-dumping

	// Drive batches through the open dump window.
	var latencies []time.Duration
	var applied []*event.Event
	inWindow := 0
	round := 0
	for {
		select {
		case err := <-ckptDone:
			if err != nil {
				t.Fatal(err)
			}
		default:
		}
		batch := genIngestEvents(20, t0.Add(time.Duration(10000+100*round)*time.Minute))
		round++
		start := time.Now()
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		lat := time.Since(start)
		latencies = append(latencies, lat)
		applied = append(applied, batch...)
		select {
		case <-ckptDone:
			// Committed after this batch; stop driving.
		default:
			inWindow++
			continue
		}
		break
	}
	if inWindow == 0 {
		t.Fatal("no ApplyBatch completed while the checkpoint dump was in flight: writers were blocked")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	t.Logf("%d batches (%d inside the dump window), p99 apply %v, max %v",
		len(latencies), inWindow, p99, latencies[len(latencies)-1])
	if p99 > time.Second {
		t.Fatalf("p99 ApplyBatch latency %v across a background checkpoint", p99)
	}

	// The pinned snapshot must not have moved.
	for id, p := range probes {
		n, ok := sn.NodeByID(id)
		if !ok || !sameNode(n, p.node) {
			t.Fatalf("pinned node %d drifted across checkpoint: %+v -> %+v", id, p.node, n)
		}
		if !sameIDs(sn.Out(id), p.out) || !sameIDs(sn.In(id), p.in) {
			t.Fatalf("pinned adjacency of %d drifted across checkpoint", id)
		}
	}

	// Recovery: checkpoint (captured mid-stream) + WAL tail must equal
	// the full replay.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ref := openStore(t, t.TempDir())
	defer ref.Close()
	if err := ref.ApplyBatch(base); err != nil {
		t.Fatal(err)
	}
	if err := ref.ApplyBatch(applied); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	storesMustMatch(t, ref, re)
}

// TestCheckpointSerialised: concurrent Checkpoint calls queue rather
// than interleave, and each produces a loadable state.
func TestCheckpointSerialised(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(100, t0))
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- s.Checkpoint() }()
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	info := s.CheckpointInfo()
	if info.Bytes == 0 || info.LastAt.IsZero() {
		t.Fatalf("CheckpointInfo = %+v after checkpoints", info)
	}
	if info.WALBytes != 0 {
		t.Fatalf("WAL not truncated after quiescent checkpoint: %d bytes", info.WALBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	snapMustMatchStore(t, re, re.Snapshot())
}

// TestCheckpointEmptyStore: checkpointing an empty store round-trips.
func TestCheckpointEmptyStore(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	if st := re.Stats(); st.Nodes != 0 || st.Edges != 0 {
		t.Fatalf("empty checkpoint loaded %+v", st)
	}
	mustApply(t, re, visit(1, "http://fresh.example/", "Fresh", "", event.TransTyped, t0))
	if _, ok := re.PageByURL("http://fresh.example/"); !ok {
		t.Fatal("store unusable after empty-checkpoint reload")
	}
}

// TestCheckpointAcrossResealInFlight: a checkpoint whose capture chains
// over a pending reseal (gated open) must still flatten and load
// correctly — the dump reads through the same overlay chain readers use.
func TestCheckpointAcrossResealInFlight(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(400, t0))
	s.WaitReseal()

	gate := make(chan struct{})
	s.mu.Lock()
	s.sealGate = gate
	s.mu.Unlock()
	s.ForceReseal()
	applyAll(t, s, genIngestEvents(80, t0.Add(2000*time.Minute))) // overlay above the pending capture

	if err := s.Checkpoint(); err != nil { // capture chains tail -> pending -> sealed
		t.Fatal(err)
	}
	close(gate)
	s.WaitReseal()
	s.mu.Lock()
	s.sealGate = nil
	s.mu.Unlock()

	ref := openStore(t, t.TempDir())
	defer ref.Close()
	applyAll(t, ref, genIngestEvents(400, t0))
	applyAll(t, ref, genIngestEvents(80, t0.Add(2000*time.Minute)))

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	storesMustMatch(t, ref, re)
}

// TestCheckpointV2EmptyVisitTitleFidelity: the elision flag, not
// string emptiness, marks a visit title as equal-to-page — a visit
// whose title is genuinely empty while its page has one must come back
// empty, not resurrect the page title.
func TestCheckpointV2EmptyVisitTitleFidelity(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	mustApply(t, s,
		visit(1, "http://a.example/", "Titled", "", event.TransTyped, t0),
		visit(1, "http://a.example/", "", "", event.TransTyped, t0.Add(time.Minute)),
	)
	page, _ := s.PageByURL("http://a.example/")
	visits := s.VisitsOfPage(page.ID)
	if len(visits) != 2 {
		t.Fatalf("visits = %v", visits)
	}
	before := make([]Node, len(visits))
	for i, id := range visits {
		before[i], _ = s.NodeByID(id)
	}
	if before[1].Title != "" {
		t.Fatalf("fixture: second visit title = %q, want empty", before[1].Title)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close()
	for i, id := range visits {
		n, _ := re.NodeByID(id)
		if !sameNode(n, before[i]) {
			t.Fatalf("visit %d drifted across checkpoint round trip: %+v -> %+v", id, before[i], n)
		}
	}
}

// TestCheckpointIdleSkip: a Checkpoint at an unchanged generation is a
// no-op — the on-disk file is already exact.
func TestCheckpointIdleSkip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	defer s.Close()
	applyAll(t, s, genIngestEvents(50, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := s.CheckpointInfo()
	time.Sleep(10 * time.Millisecond)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.CheckpointInfo(); !got.LastAt.Equal(first.LastAt) {
		t.Fatalf("idle checkpoint rewrote the file: %v -> %v", first.LastAt, got.LastAt)
	}
	// New events end the idle state.
	applyAll(t, s, genIngestEvents(5, t0.Add(time.Hour)))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.CheckpointInfo(); got.LastAt.Equal(first.LastAt) {
		t.Fatal("post-mutation checkpoint was skipped")
	}
}

// TestCheckpointV2SizeCompact: sanity-check the checkpoint's size
// premise. The raw-column schema deliberately trades bytes for
// zero-copy mmap loading (fixed-width arrays, page-aligned sections), so
// against the record dump E1 measures it only gets a bounded overhead:
// at most 2x the dump plus the worst-case alignment padding of its
// section count.
func TestCheckpointV2SizeCompact(t *testing.T) {
	s := openStore(t, t.TempDir())
	defer s.Close()
	applyAll(t, s, genIngestEvents(500, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt := s.CheckpointInfo().Bytes
	dump, err := s.RecordDumpBytes()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("record dump %d bytes, checkpoint %d bytes", dump, ckpt)
	if dump == 0 {
		t.Fatal("empty record dump of a populated store")
	}
	if lim := 2*dump + 40*4096; ckpt > lim {
		t.Fatalf("checkpoint (%d B) exceeds overhead bound (%d B)", ckpt, lim)
	}
}

// TestRecordDumpAfterMappedReopen: the record dump reads the store
// through its sealed epoch, so a store freshly reopened from a mapped
// checkpoint (its write-side state not yet thawed) dumps exactly what
// the store that built it dumps, and dumping leaves the journal alone.
func TestRecordDumpAfterMappedReopen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(300, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := s.RecordDumpBytes()
	if err != nil {
		t.Fatal(err)
	}
	wantStats := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir)
	if re.MappedInfo().MappedBytes == 0 {
		t.Fatal("fixture: reopened store is not mapped")
	}
	got, err := re.RecordDumpBytes()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("record dump after reopen = %d B, want %d B", got, want)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openStore(t, dir)
	defer re2.Close()
	if st := re2.Stats(); st != wantStats {
		t.Fatalf("stats after dump and reopen = %+v, want %+v", st, wantStats)
	}
}

// snapshotFiles reads every file in dir, for checking that a failed
// open left the store's files untouched.
func snapshotFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// mustRefuseOpen asserts that opening dir fails with want and changes
// none of its files.
func mustRefuseOpen(t *testing.T, dir string, want error) {
	t.Helper()
	before := snapshotFiles(t, dir)
	for _, noMmap := range []bool{false, true} {
		s, err := OpenWith(dir, Options{NoMmap: noMmap})
		if err == nil {
			s.Close()
			t.Fatalf("NoMmap=%v: open succeeded, want %v", noMmap, want)
		}
		if !errors.Is(err, want) {
			t.Fatalf("NoMmap=%v: open err = %v, want %v", noMmap, err, want)
		}
	}
	after := snapshotFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("refused open changed the file set: %d -> %d files", len(before), len(after))
	}
	for name, b := range before {
		if after[name] != b {
			t.Fatalf("refused open changed %s", name)
		}
	}
}

// TestOpenRefusesHeapSnapshot: a store whose current snapshot is a
// record-format heap file (what older releases wrote) must fail to
// open, not come up with only its WAL tail.
func TestOpenRefusesHeapSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(120, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyAll(t, s, genIngestEvents(10, t0.Add(time.Hour)))
	s.mu.Lock()
	sn := s.snapshotLocked()
	asm := s.captureAssemblyLocked()
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Replace the named checkpoint with a record dump of the same state.
	path := filepath.Join(dir, "provgraph.snap.000001")
	h, err := storage.CreateHeapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRecordDump(h, sn.flatEpoch(), asm); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	mustRefuseOpen(t, dir, storage.ErrBadVersion)
}

// TestOpenRefusesOldContainerVersion: a checkpoint whose container
// header names an older version fails to open with ErrBadVersion.
func TestOpenRefusesOldContainerVersion(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	applyAll(t, s, genIngestEvents(120, t0))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "provgraph.snap.000001")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b[4] != 4 {
		t.Fatalf("fixture: container version byte = %d, want 4", b[4])
	}
	b[4] = 3
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	mustRefuseOpen(t, dir, storage.ErrBadVersion)
}

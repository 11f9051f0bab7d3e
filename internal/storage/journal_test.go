package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// kvStore is a minimal journaled store used to exercise the Journal
// harness: an in-memory map whose mutations are logged and whose
// checkpoints write the whole map into one section.
type kvStore struct {
	j *Journal
	m map[string]string
}

func openKV(t *testing.T, dir string) *kvStore { return openKVJournal(t, dir, false) }

// openKVJournal opens the kvStore harness in dir, keeping a previous
// checkpoint generation when retainPrev is set.
func openKVJournal(t *testing.T, dir string, retainPrev bool) *kvStore {
	t.Helper()
	s := &kvStore{m: make(map[string]string)}
	j, err := OpenJournal(dir, "kv", JournalCallbacks{
		RetainPrev:   retainPrev,
		LoadSections: s.load,
		Replay:       s.apply,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.j = j
	return s
}

// load restores the map from section 1 of a checkpoint: a count, then
// that many key and value strings.
func (s *kvStore) load(f *SectionFile) error {
	defer f.Close()
	p, err := f.Section(1)
	if err != nil {
		return err
	}
	d := NewDecoder(p)
	n, err := d.Uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		k, err := d.String()
		if err != nil {
			return err
		}
		v, err := d.String()
		if err != nil {
			return err
		}
		s.m[k] = v
	}
	return nil
}

func (s *kvStore) apply(p []byte) error {
	d := NewDecoder(p)
	k, err := d.String()
	if err != nil {
		return err
	}
	v, err := d.String()
	if err != nil {
		return err
	}
	s.m[k] = v
	return nil
}

func (s *kvStore) set(k, v string) error {
	e := NewEncoder(len(k) + len(v) + 8)
	e.String(k)
	e.String(v)
	if err := s.j.Log(e.Bytes()); err != nil {
		return err
	}
	s.m[k] = v
	return nil
}

// checkpoint runs the journal's checkpoint protocol synchronously:
// fence, write one section holding the whole map, commit.
func (s *kvStore) checkpoint() error {
	ticket, err := s.j.BeginCheckpoint()
	if err != nil {
		return err
	}
	if err := ticket.WriteSections(func(w *SectionWriter) error {
		return w.WriteSection(1, func(e *Encoder) error {
			e.Uvarint(uint64(len(s.m)))
			for k, v := range s.m {
				e.String(k)
				e.String(v)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	return s.j.CommitCheckpoint(ticket)
}

func TestJournalRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	for i := 0; i < 100; i++ {
		if err := s.set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openKV(t, dir)
	defer s2.j.Close()
	if len(s2.m) != 100 {
		t.Fatalf("recovered %d keys, want 100", len(s2.m))
	}
	if s2.m["k42"] != "v42" {
		t.Fatalf("k42 = %q", s2.m["k42"])
	}
}

func TestJournalRecoverFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	for i := 0; i < 50; i++ {
		if err := s.set(fmt.Sprintf("k%d", i), "before"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations land in the fresh WAL.
	for i := 40; i < 60; i++ {
		if err := s.set(fmt.Sprintf("k%d", i), "after"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openKV(t, dir)
	defer s2.j.Close()
	if len(s2.m) != 60 {
		t.Fatalf("recovered %d keys, want 60", len(s2.m))
	}
	if s2.m["k10"] != "before" || s2.m["k45"] != "after" || s2.m["k59"] != "after" {
		t.Fatalf("recovered values wrong: k10=%q k45=%q k59=%q", s2.m["k10"], s2.m["k45"], s2.m["k59"])
	}
}

func TestJournalCheckpointResetsWAL(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	defer s.j.Close()
	for i := 0; i < 100; i++ {
		if err := s.set(fmt.Sprintf("key-%d", i), "value"); err != nil {
			t.Fatal(err)
		}
	}
	if s.j.WALSize() == 0 {
		t.Fatal("WAL empty before checkpoint")
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.j.WALSize() != 0 {
		t.Fatalf("WAL size after checkpoint = %d, want 0", s.j.WALSize())
	}
	if s.j.SnapshotSize() == 0 {
		t.Fatal("no snapshot after checkpoint")
	}
}

func TestJournalOldSnapshotRemoved(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	defer s.j.Close()
	if err := s.set("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := s.j.snapPath
	if err := s.set("b", "2"); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatalf("old snapshot %s still present (err=%v)", first, err)
	}
}

func TestJournalTornWALTailAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	if err := s.set("stable", "yes"); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.set("tail", "entry"); err != nil {
		t.Fatal(err)
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the WAL tail.
	walPath := filepath.Join(dir, "kv.wal")
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openKV(t, dir)
	defer s2.j.Close()
	if s2.m["stable"] != "yes" {
		t.Fatal("snapshot data lost")
	}
	if _, present := s2.m["tail"]; present {
		t.Fatal("torn tail entry survived recovery")
	}
	// Store remains writable.
	if err := s2.set("tail", "retry"); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCorruptMetaRejected(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	if err := s.set("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.j.Close(); err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, "kv.meta")
	raw, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	raw[8] ^= 0xFF
	if err := os.WriteFile(meta, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir, "kv", JournalCallbacks{}); err == nil {
		t.Fatal("corrupt meta accepted")
	}
}

func TestJournalSizeOnDisk(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	defer s.j.Close()
	if err := s.set("k", "v"); err != nil {
		t.Fatal(err)
	}
	if s.j.SizeOnDisk() == 0 {
		t.Fatal("SizeOnDisk = 0 with WAL content")
	}
	if err := s.checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.j.SnapshotSize()
	if want == 0 {
		t.Fatal("SnapshotSize = 0 after checkpoint")
	}
	got := s.j.SizeOnDisk()
	if got < want {
		t.Fatalf("SizeOnDisk = %d < snapshot %d", got, want)
	}
}

func TestJournalSyncEveryOne(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	s.j.SyncEvery = 1
	for i := 0; i < 10; i++ {
		if err := s.set(fmt.Sprintf("s%d", i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	// No clean close: simulate a crash by reopening from disk state.
	// With SyncEvery=1 every entry is on disk.
	if err := s.j.Sync(); err != nil {
		t.Fatal(err)
	}
	s2 := openKV(t, dir)
	defer s2.j.Close()
	if len(s2.m) != 10 {
		t.Fatalf("recovered %d keys, want 10", len(s2.m))
	}
}

// TestJournalLogBatch: a batch is appended entry-per-entry (through a
// reused scratch encoder — Append must copy) but counts as ONE commit
// toward the SyncEvery group-commit window, and every entry replays on
// recovery.
func TestJournalLogBatch(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	s.j.SyncEvery = 1 // every commit durable: a batch = one fsync

	enc := NewEncoder(32)
	const n = 100
	appended, err := s.j.LogBatch(n, func(i int) []byte {
		enc.Reset()
		enc.String(fmt.Sprintf("k%03d", i))
		enc.String(fmt.Sprintf("v%03d", i))
		return enc.Bytes()
	})
	if err != nil || appended != n {
		t.Fatalf("LogBatch = (%d, %v), want (%d, nil)", appended, err, n)
	}
	if s.j.unsynced != 0 {
		t.Fatalf("unsynced = %d after a SyncEvery=1 batch, want 0 (synced)", s.j.unsynced)
	}

	// Crash-recover without a clean close: all n entries must replay
	// individually (distinct payloads despite the shared scratch).
	s2 := openKV(t, dir)
	defer s2.j.Close()
	if len(s2.m) != n {
		t.Fatalf("recovered %d keys, want %d", len(s2.m), n)
	}
	for i := 0; i < n; i++ {
		if got := s2.m[fmt.Sprintf("k%03d", i)]; got != fmt.Sprintf("v%03d", i) {
			t.Fatalf("k%03d = %q", i, got)
		}
	}
	s.j.Close()
}

// TestJournalLogBatchGroupCommitWindow: under SyncEvery=N, batches
// advance the window by one commit each, not by their entry count.
func TestJournalLogBatchGroupCommitWindow(t *testing.T) {
	dir := t.TempDir()
	s := openKV(t, dir)
	defer s.j.Close()
	s.j.SyncEvery = 3
	enc := NewEncoder(32)
	batch := func() {
		t.Helper()
		if _, err := s.j.LogBatch(50, func(i int) []byte {
			enc.Reset()
			enc.String(fmt.Sprintf("k%d", i))
			enc.String("v")
			return enc.Bytes()
		}); err != nil {
			t.Fatal(err)
		}
	}
	batch()
	batch()
	if s.j.unsynced != 2 {
		t.Fatalf("unsynced = %d after 2 batches, want 2", s.j.unsynced)
	}
	batch() // third commit hits the window: sync + reset
	if s.j.unsynced != 0 {
		t.Fatalf("unsynced = %d after 3rd batch, want 0", s.j.unsynced)
	}
}

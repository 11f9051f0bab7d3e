package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"
)

// Journal is the durability harness shared by every store in the system.
// A store keeps its working state in memory; the journal makes that state
// durable with the classic snapshot-plus-log recipe:
//
//   - every mutation is encoded and appended to a WAL before it is
//     applied in memory;
//   - a checkpoint streams the full in-memory state into a fresh heap
//     file snapshot, atomically switches the metadata to point at it,
//     and resets the WAL;
//   - on open, the journal loads the newest snapshot and replays the
//     WAL suffix over it.
//
// The on-disk footprint (snapshot + WAL) is what experiment E1 measures.
type Journal struct {
	dir  string
	name string
	fs   VFS

	wal      *WAL
	snapPath string
	snapSize int64
	snapTime time.Time
	gen      uint64
	startLSN uint64 // first LSN not covered by the current snapshot

	// SyncEvery controls group commit: the WAL is fsynced after this
	// many logged commits (1 = every commit). A Log call is one commit;
	// a LogBatch call is one commit no matter how many entries it
	// carries — that is what makes batched ingest cheap under strict
	// durability. Checkpoint and Close always sync. The default, 0, is
	// treated as 256.
	SyncEvery int
	unsynced  int

	// Previous-generation retention (JournalCallbacks.RetainPrev): the
	// kept N-1 snapshot's coordinates and path, and the byte offset in
	// the live WAL file where the current generation's fence sits — the
	// prefix below it belongs to the previous generation and is dropped
	// only when the NEXT checkpoint commits.
	keepPrev     bool
	havePrev     bool // a fallback generation has actually been recorded
	prevGen      uint64
	prevStartLSN uint64
	prevSnapPath string
	fenceOff     int64
}

// JournalCallbacks supplies the store-specific halves of recovery.
type JournalCallbacks struct {
	// LoadSnapshot is called with the snapshot heap file when the
	// snapshot is in the record-oriented heap format. Opening a journal
	// whose snapshot is a heap file fails when it is nil.
	LoadSnapshot func(h *HeapFile) error
	// LoadSections is called with the open section file when the
	// snapshot is in the sectioned columnar format. Section payloads are
	// checksummed lazily on first access; the loader owns deciding which
	// sections to touch. The callback takes ownership of the file's
	// reference: a loader that keeps aliases into section payloads must
	// keep the SectionFile and Close it when those aliases die (the
	// journal itself never closes it). Opening a journal whose snapshot
	// is sectioned fails when it is nil.
	LoadSections func(f *SectionFile) error
	// MapSnapshot asks for sectioned snapshots to be memory-mapped
	// instead of read onto the heap (best effort; platforms without
	// mmap fall back to the heap read).
	MapSnapshot bool
	// Replay applies one logged mutation during recovery.
	Replay func(payload []byte) error
	// FS, when set, interposes on the journal's commit path (WAL and
	// metadata files): internal/faultfs uses it to inject ENOSPC, fsync
	// failures, torn writes and slow I/O in crash-consistency tests. Nil
	// means the real filesystem.
	FS VFS
	// RetainPrev keeps one previous-generation snapshot file and lags
	// the WAL trim by one checkpoint: after committing generation N, the
	// log still holds every entry at or past generation N-1's fence, so
	// a store whose current snapshot is later found corrupt (bit rot) can
	// fall back to N-1 plus WAL replay without losing a single event —
	// see RepairJournal. Costs one extra snapshot file plus one
	// checkpoint interval of WAL. It also deepens the WAL history the
	// replication stream can serve, so slow followers bootstrap less
	// often. Default off.
	RetainPrev bool
}

type journalMeta struct {
	gen      uint64 // snapshot generation (0 = no snapshot)
	startLSN uint64 // first LSN not covered by the snapshot
	// Previous-generation retention coordinates (RetainPrev). havePrev
	// distinguishes "retention on, previous = genesis" (prevGen 0 with
	// the full WAL behind it) from a legacy 20-byte meta with no
	// fallback at all.
	havePrev     bool
	prevGen      uint64
	prevStartLSN uint64
}

// ErrCorruptMeta indicates an unreadable journal metadata file.
var ErrCorruptMeta = errors.New("storage: corrupt journal metadata")

// OpenJournal opens (or creates) the journal named name in dir and runs
// recovery through cb.
func OpenJournal(dir, name string, cb JournalCallbacks) (*Journal, error) {
	fs := cb.FS
	if fs == nil {
		fs = OSFS
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, name: name, fs: fs, keepPrev: cb.RetainPrev}
	meta, err := j.readMeta()
	if err != nil {
		return nil, err
	}
	j.gen = meta.gen
	j.startLSN = meta.startLSN
	if meta.havePrev {
		j.havePrev = true
		j.prevGen = meta.prevGen
		j.prevStartLSN = meta.prevStartLSN
		if meta.prevGen > 0 {
			j.prevSnapPath = j.snapFile(meta.prevGen)
		}
	}
	if meta.gen > 0 {
		j.snapPath = j.snapFile(meta.gen)
		if fi, err := fs.Stat(j.snapPath); err == nil {
			j.snapTime = fi.ModTime()
		}
		// The snapshot format is sniffed from the file itself: a
		// sectioned checkpoint bulk-loads through LoadSections, anything
		// else is a record-oriented heap file for LoadSnapshot. A format
		// the caller has no loader for is an error, never skipped: a
		// skipped snapshot would open the store with only the WAL tail.
		if IsSectionFile(j.snapPath) {
			if cb.LoadSections == nil {
				return nil, fmt.Errorf("storage: snapshot %s is sectioned but no LoadSections callback is set", j.snapPath)
			}
			sf, err := OpenSectionFile(j.snapPath, cb.MapSnapshot)
			if err != nil {
				return nil, fmt.Errorf("storage: open snapshot: %w", err)
			}
			if err := cb.LoadSections(sf); err != nil {
				sf.Close()
				return nil, fmt.Errorf("storage: load snapshot: %w", err)
			}
			j.snapSize = sf.Size()
		} else {
			if cb.LoadSnapshot == nil {
				return nil, fmt.Errorf("%w: snapshot %s is not sectioned and no LoadSnapshot callback is set", ErrBadVersion, j.snapPath)
			}
			h, err := OpenHeapFile(j.snapPath)
			if err != nil {
				return nil, fmt.Errorf("storage: open snapshot: %w", err)
			}
			j.snapSize = h.Size()
			if err := cb.LoadSnapshot(h); err != nil {
				h.Close()
				return nil, fmt.Errorf("storage: load snapshot: %w", err)
			}
			if err := h.Close(); err != nil {
				return nil, err
			}
		}
	}
	replay := func(_ uint64, payload []byte) error {
		if cb.Replay == nil {
			return nil
		}
		return cb.Replay(payload)
	}
	wal, err := OpenWALFS(fs, j.walFile(), meta.startLSN, replay)
	if err != nil {
		return nil, err
	}
	j.wal = wal
	j.fenceOff = wal.FenceOff()
	return j, nil
}

func (j *Journal) snapFile(gen uint64) string {
	return SnapshotFilePath(j.dir, j.name, gen)
}
func (j *Journal) walFile() string {
	return filepath.Join(j.dir, j.name+".wal")
}
func (j *Journal) metaFile() string {
	return filepath.Join(j.dir, j.name+".meta")
}

// readMeta loads the metadata file, returning the zero meta if absent.
func (j *Journal) readMeta() (journalMeta, error) {
	b, err := j.fs.ReadFile(j.metaFile())
	if errors.Is(err, os.ErrNotExist) {
		return journalMeta{}, nil
	}
	if err != nil {
		return journalMeta{}, err
	}
	if len(b) != 20 && len(b) != 36 {
		return journalMeta{}, fmt.Errorf("%w: length %d", ErrCorruptMeta, len(b))
	}
	if crc32.Checksum(b[4:], castagnoli) != binary.LittleEndian.Uint32(b[0:]) {
		return journalMeta{}, ErrCorruptMeta
	}
	m := journalMeta{
		gen:      binary.LittleEndian.Uint64(b[4:]),
		startLSN: binary.LittleEndian.Uint64(b[12:]),
	}
	if len(b) == 36 {
		m.havePrev = true
		m.prevGen = binary.LittleEndian.Uint64(b[20:])
		m.prevStartLSN = binary.LittleEndian.Uint64(b[28:])
	}
	return m, nil
}

// writeMeta atomically replaces the metadata file. The legacy 20-byte
// layout is kept for metas without retention coordinates; with them the
// file grows to 36 bytes (crc4 | gen8 | startLSN8 | prevGen8 |
// prevStartLSN8), the CRC covering everything past itself either way.
func (j *Journal) writeMeta(m journalMeta) error {
	b := make([]byte, 20, 36)
	binary.LittleEndian.PutUint64(b[4:], m.gen)
	binary.LittleEndian.PutUint64(b[12:], m.startLSN)
	if m.havePrev {
		b = binary.LittleEndian.AppendUint64(b, m.prevGen)
		b = binary.LittleEndian.AppendUint64(b, m.prevStartLSN)
	}
	binary.LittleEndian.PutUint32(b[0:], crc32.Checksum(b[4:], castagnoli))
	tmp := j.metaFile() + ".tmp"
	f, err := j.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return j.fs.Rename(tmp, j.metaFile())
}

// Log appends one encoded mutation to the WAL as one commit. The
// caller applies the mutation to its in-memory state after Log returns.
func (j *Journal) Log(payload []byte) error {
	if _, err := j.wal.Append(payload); err != nil {
		return err
	}
	return j.commit()
}

// commit records one logged commit against the SyncEvery group-commit
// window, fsyncing when the window fills. Shared by Log and LogBatch so
// per-event and batched commits can never drift apart in durability
// semantics.
//
// A failed fsync is propagated AND leaves the window full: the commits
// it covered are still not durable, so the very next commit retries the
// fsync instead of silently opening a fresh window over unsynced data.
// (Post-fsync-failure page-cache state is implementation-defined, but
// never silently reporting unsynced data as committed is the invariant
// the ingest layer's retry/ack protocol builds on.)
func (j *Journal) commit() error {
	j.unsynced++
	every := j.SyncEvery
	if every <= 0 {
		every = 256
	}
	if j.unsynced >= every {
		if err := j.wal.Sync(); err != nil {
			return err
		}
		j.unsynced = 0
	}
	return nil
}

// LogBatch appends n encoded mutations to the WAL as one commit unit:
// the payload callback is invoked once per entry (it may reuse one
// scratch buffer — Append copies the bytes into the log's write buffer
// before the next call), and the whole batch counts as a single logged
// commit toward the SyncEvery group-commit window. This is the
// durability half of batched ingest: a batch reaches disk with at most
// one fsync, and with SyncEvery=1 ("every commit durable") the fsync
// cost is amortised over the batch instead of paid per event.
//
// On an append error the already-appended prefix remains in the log
// (and will replay on recovery); the caller is told how many entries
// were appended so it can keep its in-memory state consistent with the
// durable prefix.
func (j *Journal) LogBatch(n int, payload func(i int) []byte) (appended int, err error) {
	for i := 0; i < n; i++ {
		if _, err := j.wal.Append(payload(i)); err != nil {
			return i, err
		}
	}
	return n, j.commit()
}

// Sync forces buffered WAL entries to stable storage. The group-commit
// window only resets on success — see commit.
func (j *Journal) Sync() error {
	if err := j.wal.Sync(); err != nil {
		return err
	}
	j.unsynced = 0
	return nil
}

// Checkpoint writes a fresh snapshot through write, switches the journal
// to it, and resets the WAL. After Checkpoint returns, recovery needs
// only the new snapshot.
func (j *Journal) Checkpoint(write func(h *HeapFile) error) error {
	if err := j.wal.Sync(); err != nil {
		return err
	}
	newGen := j.gen + 1
	path := j.snapFile(newGen)
	h, err := CreateHeapFile(path)
	if err != nil {
		return err
	}
	if err := write(h); err != nil {
		h.Close()
		os.Remove(path)
		return fmt.Errorf("storage: checkpoint write: %w", err)
	}
	if err := h.Sync(); err != nil {
		h.Close()
		os.Remove(path)
		return err
	}
	size := h.Size()
	if err := h.Close(); err != nil {
		os.Remove(path)
		return err
	}
	startLSN := j.wal.NextLSN()
	if err := j.writeMeta(j.nextMeta(newGen, startLSN)); err != nil {
		os.Remove(path)
		return err
	}
	if j.keepPrev {
		// Retention: keep the outgoing snapshot and the WAL suffix at or
		// past ITS fence; only the prefix the previous generation covered
		// is finally dropped.
		walOff := j.wal.Size() // fence of the new generation: end of log
		trimAt := j.fenceOff
		if err := j.wal.ResetKeepTail(trimAt); err != nil {
			return err
		}
		j.retirePrev(j.gen, j.startLSN, j.snapPath, walOff, trimAt)
	} else {
		if err := j.wal.Reset(startLSN); err != nil {
			return err
		}
		// Best-effort removal of the superseded snapshot.
		if j.snapPath != "" {
			os.Remove(j.snapPath)
		}
	}
	j.gen = newGen
	j.snapPath = path
	j.snapSize = size
	j.snapTime = time.Now()
	j.startLSN = startLSN
	j.unsynced = 0
	return nil
}

// nextMeta builds the metadata naming generation gen, carrying the
// outgoing generation as the retention fallback when RetainPrev is on.
func (j *Journal) nextMeta(gen, startLSN uint64) journalMeta {
	m := journalMeta{gen: gen, startLSN: startLSN}
	if j.keepPrev {
		m.havePrev = true
		m.prevGen = j.gen
		m.prevStartLSN = j.startLSN
	}
	return m
}

// retirePrev rotates the retention bookkeeping after a commit whose new
// fence sat at byte offset walOff of the pre-trim log: the N-2 snapshot
// file (now beyond the fallback horizon) is removed, the outgoing
// generation (outGen, outStartLSN, outSnap) becomes the kept previous,
// and the fence offset is rebased into the trimmed file's coordinates.
func (j *Journal) retirePrev(outGen, outStartLSN uint64, outSnap string, walOff, trimAt int64) {
	if j.prevSnapPath != "" && j.prevSnapPath != outSnap && j.prevSnapPath != j.snapPath {
		os.Remove(j.prevSnapPath)
	}
	j.havePrev = true
	j.prevGen = outGen
	j.prevStartLSN = outStartLSN
	j.prevSnapPath = outSnap
	if trimAt > walOff {
		trimAt = walOff
	}
	j.fenceOff = walOff - trimAt
}

// ---- background (sectioned) checkpoints ----
//
// A synchronous Checkpoint holds the store's write lock for the whole
// dump. The split protocol below lets the dump itself run off-lock:
//
//	BeginCheckpoint   (under the store lock)  — fence the WAL
//	ticket.WriteSections (off-lock)           — stream the snapshot
//	CommitCheckpoint  (under the store lock)  — atomic metadata swap
//
// Crash safety is unchanged: the new file only becomes live when the
// metadata names it, after both the file and the metadata are fsynced.
// A crash mid-WriteSections leaves unreachable garbage at the next
// generation's path, which the next checkpoint truncates over; recovery
// proceeds from the previous checkpoint plus the WAL.

// CheckpointTicket is an in-flight background checkpoint. The journal
// supports one at a time; the store serialises checkpoints.
type CheckpointTicket struct {
	j        *Journal
	gen      uint64
	path     string
	startLSN uint64 // first LSN not covered by the snapshot being written
	walOff   int64  // byte offset of the first post-fence WAL entry
	size     int64
}

// BeginCheckpoint fences a background checkpoint at the current WAL
// position: everything logged so far will be covered by the snapshot
// about to be written, everything after stays in the log. The caller
// must hold the store's write lock (the fence must be consistent with
// the in-memory state being captured); the WAL is flushed and fsynced
// so the fence offset is stable on disk.
func (j *Journal) BeginCheckpoint() (*CheckpointTicket, error) {
	if err := j.wal.Sync(); err != nil {
		return nil, err
	}
	j.unsynced = 0
	return &CheckpointTicket{
		j:        j,
		gen:      j.gen + 1,
		path:     j.snapFile(j.gen + 1),
		startLSN: j.wal.NextLSN(),
		walOff:   j.wal.Size(),
	}, nil
}

// WriteSections writes the checkpoint's sectioned snapshot file through
// write and fsyncs it. It runs without any store lock: the caller hands
// it only immutable captured state. On error the partial file is
// removed and the ticket must be discarded.
func (t *CheckpointTicket) WriteSections(write func(w *SectionWriter) error) error {
	w, err := CreateSectionFile(t.path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		w.Close()
		os.Remove(t.path)
		return fmt.Errorf("storage: checkpoint write: %w", err)
	}
	t.size = w.Size()
	if err := w.Close(); err != nil {
		os.Remove(t.path)
		return err
	}
	return nil
}

// CommitCheckpoint atomically switches the journal to the ticket's
// snapshot and drops the WAL prefix it covers, keeping entries logged
// after the fence. The caller must hold the store's write lock.
func (j *Journal) CommitCheckpoint(t *CheckpointTicket) error {
	if err := j.writeMeta(j.nextMeta(t.gen, t.startLSN)); err != nil {
		os.Remove(t.path)
		return err
	}
	outGen, outStartLSN, outSnap := j.gen, j.startLSN, j.snapPath
	trimAt := t.walOff
	if j.keepPrev {
		// Retention: the outgoing snapshot survives as the fallback, so the
		// WAL is trimmed at ITS fence, keeping one extra checkpoint interval
		// of log behind the new fence.
		trimAt = j.fenceOff
	} else if outSnap != "" && outSnap != t.path {
		os.Remove(outSnap)
	}
	j.gen = t.gen
	j.snapPath = t.path
	j.snapSize = t.size
	j.snapTime = time.Now()
	j.startLSN = t.startLSN
	j.unsynced = 0
	// The metadata now fences replay at startLSN, so the prefix is dead
	// weight either way; a failure here costs disk space, not
	// correctness.
	err := j.wal.ResetKeepTail(trimAt)
	if j.keepPrev {
		j.retirePrev(outGen, outStartLSN, outSnap, t.walOff, trimAt)
	}
	return err
}

// SnapshotTime returns when the current snapshot was written (the file
// mtime for snapshots inherited at open; zero if there is none).
func (j *Journal) SnapshotTime() time.Time { return j.snapTime }

// SizeOnDisk returns the journal's durable footprint in bytes: the
// snapshot, the WAL (including buffered bytes), and the metadata file.
func (j *Journal) SizeOnDisk() int64 {
	size := j.wal.Size()
	size += j.snapSize
	if j.prevSnapPath != "" && j.prevSnapPath != j.snapPath {
		if fi, err := os.Stat(j.prevSnapPath); err == nil {
			size += fi.Size()
		}
	}
	if fi, err := os.Stat(j.metaFile()); err == nil {
		size += fi.Size()
	}
	return size
}

// PrevGen returns the retained previous snapshot generation and whether
// retention has established one (RetainPrev journals only; prevGen 0
// with ok=true means the fallback is "no snapshot + full WAL").
func (j *Journal) PrevGen() (uint64, bool) {
	return j.prevGen, j.havePrev
}

// WALSize returns the current WAL size in bytes.
func (j *Journal) WALSize() int64 { return j.wal.Size() }

// ---- replication accessors ----
//
// WAL shipping reads the journal's durable artifacts by path (the
// stream server tails the WAL file with a WALReader, the bootstrap
// endpoint streams the snapshot file), so the accessors below expose
// just enough geometry — generation, fence LSN, append position, paths
// — for a replication layer to serve both without reaching into
// journal internals. Callers must hold whatever lock guards the
// journal's writer (the store mutex) while calling them.

// Gen returns the current snapshot generation (0 = no snapshot).
func (j *Journal) Gen() uint64 { return j.gen }

// StartLSN returns the first LSN not covered by the current snapshot —
// the WAL fence. Entries below it live only in the snapshot.
func (j *Journal) StartLSN() uint64 { return j.startLSN }

// NextLSN returns the LSN the next logged entry will receive.
func (j *Journal) NextLSN() uint64 { return j.wal.NextLSN() }

// WALPath returns the path of the live WAL file.
func (j *Journal) WALPath() string { return j.walFile() }

// SnapshotPath returns the path of the current snapshot file ("" if
// none).
func (j *Journal) SnapshotPath() string { return j.snapPath }

// LastFrameCRC returns the WAL frame CRC of the newest logged entry
// (false if nothing has been logged or replayed this open).
func (j *Journal) LastFrameCRC() (uint32, bool) { return j.wal.LastFrameCRC() }

// Flush pushes buffered WAL entries to the OS without fsyncing, making
// them visible to WAL file readers (see WAL.Flush).
func (j *Journal) Flush() error { return j.wal.Flush() }

// SnapshotFilePath returns the path a journal named name in dir gives
// its generation-gen snapshot. Replication bootstrap uses it to install
// a downloaded checkpoint where recovery will find it.
func SnapshotFilePath(dir, name string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.snap.%06d", name, gen))
}

// WriteJournalMeta atomically writes the metadata file for a journal
// named name in dir, naming snapshot generation gen with WAL fence
// startLSN. It is the bootstrap half of replication: a follower that
// downloaded snapshot gen into SnapshotFilePath(dir, name, gen) commits
// the install by writing this meta; the next OpenJournal then recovers
// through the ordinary snapshot-plus-log path.
func WriteJournalMeta(dir, name string, gen, startLSN uint64) error {
	if err := OSFS.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	j := &Journal{dir: dir, name: name, fs: OSFS}
	return j.writeMeta(journalMeta{gen: gen, startLSN: startLSN})
}

// SnapshotSize returns the current snapshot size in bytes (0 if none).
func (j *Journal) SnapshotSize() int64 { return j.snapSize }

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	return j.wal.Close()
}

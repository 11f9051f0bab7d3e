package provgraph

// Online integrity scrubbing: a background sweep that re-verifies the
// live checkpoint's section CRCs and the WAL's frame CRCs in bounded
// time slices, so silent on-disk corruption (bit rot, a misdirected
// write) is detected while the store is serving instead of at the next
// unlucky open.
//
// The checkpoint half rides the lazy per-section CRC machinery: a
// mapped (MAP_SHARED) checkpoint's payload bytes come straight off the
// file, so re-checksumming a section through SectionFile.VerifyTag
// observes current disk content at page-cache cost — no locks, no
// read-path stalls, queries on other sections proceed untouched. When
// the current checkpoint is not the mapped one (NoMmap, or a checkpoint
// written since the last open) there is no mapping to re-checksum, so
// the sweep re-reads the checkpoint file by path instead. The WAL half
// re-reads the log file through its own descriptor (ScrubWALFile), which
// is safe against concurrent appends, trims and rename swaps.

import (
	"os"
	"time"

	"browserprov/internal/storage"
)

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// ScrubStatus is the cumulative record of a store's integrity sweeps
// (JSON-tagged for the daemon's /stats).
type ScrubStatus struct {
	// LastScrub is when the last complete sweep (every section + the
	// WAL) finished; zero if none has yet.
	LastScrub time.Time `json:"last_scrub"`
	// Sweeps counts completed full sweeps.
	Sweeps uint64 `json:"sweeps"`
	// SectionsVerified counts section re-verifications across all
	// sweeps (whole-snapshot re-reads of unmapped stores count one).
	SectionsVerified uint64 `json:"sections_verified"`
	// FramesVerified counts WAL frames re-verified across all sweeps.
	FramesVerified uint64 `json:"wal_frames_verified"`
	// Corruptions counts integrity failures detected.
	Corruptions uint64 `json:"corruptions"`
	// LastError is the most recent integrity failure ("" if none).
	LastError string `json:"last_error,omitempty"`
}

// scrubCursor tracks a sweep's position so each ScrubStep does a
// bounded slice of work and the sweep resumes where it left off. The
// sect pointer is only ever compared for identity (a new checkpoint
// view restarts the sweep), never dereferenced after its pin lapses.
type scrubCursor struct {
	sect *storage.SectionFile
	tags []uint32
	next int
}

// ScrubStep runs one bounded slice of the integrity sweep: it verifies
// checkpoint sections until budget elapses, and finishes the sweep with
// a WAL frame scan once every section has been covered. A budget <= 0
// means "no limit" (the step completes a whole sweep).
//
// It returns done=true when a full sweep completed this step. Any
// integrity failure is returned (and counted in ScrubStatus); the sweep
// restarts from the top on the next call. ErrClosed is returned once
// the store is closing — the caller's scrub loop should stop.
func (s *Store) ScrubStep(budget time.Duration) (done bool, err error) {
	release, err := s.PinRead()
	if err != nil {
		return false, err
	}
	defer release()
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()

	var deadline time.Time
	if budget > 0 {
		deadline = time.Now().Add(budget)
	}

	// Section phase, only while the mapped load-time view is still the
	// current checkpoint: s.sect is set when a checkpoint is loaded, so
	// after a live Checkpoint it maps a superseded file, and rot in the
	// current one would go unseen. Anything else (an unmapped view, or a
	// newer checkpoint) is re-read from disk by path below. The pin taken
	// above keeps s.sect alive and stable for the whole step.
	sect := s.sect
	path := s.snapshotPathLocked()
	if sect != nil && sect.Mapped() && sect.Path() == path {
		if s.scrubCur.sect != sect {
			s.scrubCur = scrubCursor{sect: sect, tags: sect.Tags()}
		}
		for s.scrubCur.next < len(s.scrubCur.tags) {
			tag := s.scrubCur.tags[s.scrubCur.next]
			s.scrubCur.next++
			s.scrubStat.SectionsVerified++
			if err := sect.VerifyTag(tag); err != nil {
				s.scrubFailLocked(err)
				return false, err
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return false, nil // budget spent; resume next step
			}
		}
	} else {
		s.scrubCur = scrubCursor{}
		if path != "" {
			if err := verifySnapshotIgnoringSupersede(path); err != nil {
				s.scrubFailLocked(err)
				return false, err
			}
			s.scrubStat.SectionsVerified++
		}
	}

	// Completion phase: the WAL. One checkpoint interval of log (two
	// under retention) — small enough to take as a single slice.
	frames, err := ScrubWALFile(s)
	s.scrubStat.FramesVerified += uint64(frames)
	if err != nil {
		s.scrubFailLocked(err)
		s.scrubCur = scrubCursor{}
		return false, err
	}
	s.scrubCur = scrubCursor{}
	s.scrubStat.Sweeps++
	s.scrubStat.LastScrub = time.Now()
	return true, nil
}

// ScrubWALFile re-verifies every frame CRC of the store's live WAL file
// through an independent descriptor. Exposed separately so callers can
// scrub the log without sweeping the checkpoint.
func ScrubWALFile(s *Store) (frames int, err error) {
	return storage.ScrubWALFile(s.j.WALPath())
}

// verifySnapshotIgnoringSupersede fully verifies the snapshot at path,
// treating a vanished file as clean: a checkpoint that committed while
// the sweep was queued removes the superseded snapshot, which is not
// corruption.
func verifySnapshotIgnoringSupersede(path string) error {
	err := storage.VerifySnapshotFile(path)
	if err != nil && !fileExists(path) {
		return nil
	}
	return err
}

// scrubFailLocked records an integrity failure. Caller holds scrubMu.
func (s *Store) scrubFailLocked(err error) {
	s.scrubStat.Corruptions++
	s.scrubStat.LastError = err.Error()
}

// snapshotPathLocked snapshots the current checkpoint path under the
// store read lock (a background checkpoint commit mutates it).
func (s *Store) snapshotPathLocked() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.SnapshotPath()
}

// ScrubStatus returns the store's cumulative scrub counters.
func (s *Store) ScrubStatus() ScrubStatus {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	return s.scrubStat
}

// Scrub runs complete sweeps in budget-bounded steps until one sweep
// finishes, sleeping pause between steps (0 = no pause). It is the
// convenience loop over ScrubStep for callers that want "scrub this
// store now" semantics with bounded read-path impact.
func (s *Store) Scrub(budget, pause time.Duration) error {
	for {
		done, err := s.ScrubStep(budget)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if pause > 0 {
			time.Sleep(pause)
		}
	}
}

// RepairStore attempts offline repair of the store journal in dir: if
// the current checkpoint is corrupt it falls back to the retained
// previous generation plus WAL replay (see storage.RepairJournal; the
// store must have been running with Options.RetainPrevCheckpoint for a
// fallback to exist). The store must be closed. On success the next
// OpenWith recovers every logged event.
func RepairStore(dir string) (*storage.RepairReport, error) {
	return storage.RepairJournal(dir, "provgraph")
}

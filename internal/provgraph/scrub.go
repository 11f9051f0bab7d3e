package provgraph

// Online integrity scrubbing: a background sweep that re-verifies the
// current checkpoint's section CRCs and the WAL's frame CRCs in bounded
// time slices, so silent on-disk corruption (bit rot, a misdirected
// write) is detected while the store is serving instead of at the next
// unlucky open.
//
// The checkpoint half has one path for every store, whether it loaded
// its checkpoint mapped, loaded it with NoMmap, or wrote it live: the
// sweep maps the current checkpoint file itself, once per section, and
// re-checksums the section through SectionFile.VerifyTag, resuming
// where the last step stopped. A MAP_SHARED mapping observes current
// disk content at page-cache cost, with no locks and no copy of the
// file. (Where mmap is unavailable each open reads the whole file.)
//
// The WAL half (storage.ScrubWALFile) re-reads the whole log through
// its own descriptor at the end of each sweep, which is safe against
// concurrent appends, trims and rename swaps. It reads through one
// window that grows to 256 KiB, and checks each frame with
// storage.ParseWALFrame, the decoder replay and replication use. It
// does not resume from where the last sweep ended: a frame verified
// once would then never be verified again, and rot that lands in it
// later would go unseen until replay cut the log there.

import (
	"errors"
	"io/fs"
	"time"

	"browserprov/internal/storage"
)

// ScrubStatus is the cumulative record of a store's integrity sweeps
// (JSON-tagged for the daemon's /stats).
type ScrubStatus struct {
	// LastScrub is when the last complete sweep (every section + the
	// WAL) finished; zero if none has yet.
	LastScrub time.Time `json:"last_scrub"`
	// Sweeps counts completed full sweeps.
	Sweeps uint64 `json:"sweeps"`
	// SectionsVerified counts checkpoint sections re-verified across
	// all sweeps, one per section.
	SectionsVerified uint64 `json:"sections_verified"`
	// FramesVerified counts WAL frames re-verified across all sweeps.
	FramesVerified uint64 `json:"wal_frames_verified"`
	// Corruptions counts integrity failures detected.
	Corruptions uint64 `json:"corruptions"`
	// LastError is the most recent integrity failure ("" if none).
	LastError string `json:"last_error,omitempty"`
}

// scrubCursor tracks a sweep's position so each ScrubStep does a
// bounded slice of work and the sweep resumes where it left off: the
// checkpoint the sweep is on, its section tags (nil until first read)
// and the next one to verify. A new checkpoint path restarts the sweep.
type scrubCursor struct {
	path string
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

	c := &s.scrubCur
	if path := s.snapshotPathLocked(); path != c.path {
		*c = scrubCursor{path: path}
	}
	if c.path != "" && (c.tags == nil || c.next < len(c.tags)) {
		if more, err := s.scrubSectionsLocked(deadline); more || err != nil {
			return false, err
		}
	}

	// Completion phase: the WAL. One checkpoint interval of log (two
	// under retention) — small enough to take as a single slice.
	frames, err := ScrubWALFile(s)
	s.scrubStat.FramesVerified += uint64(frames)
	c.tags, c.next = nil, 0
	if err != nil {
		s.scrubFailLocked(err)
		return false, err
	}
	s.scrubStat.Sweeps++
	s.scrubStat.LastScrub = time.Now()
	return true, nil
}

// scrubSectionsLocked verifies the cursor's checkpoint sections from
// the cursor on, one at a time, until deadline passes (zero: until all
// are done). Each section is verified through a mapping of the file
// opened for it alone, so the scrub never holds more than one section
// of the checkpoint in the resident set; a step's budget covers tens of
// megabytes of CRC, which a mapping held for the whole step would keep
// resident. more reports that the step's budget is spent or the sweep
// must restart, so the WAL phase waits for a later step. Caller holds
// scrubMu.
func (s *Store) scrubSectionsLocked(deadline time.Time) (more bool, err error) {
	c := &s.scrubCur
	for c.tags == nil || c.next < len(c.tags) {
		sf, err := storage.OpenSectionFile(c.path, true)
		if err != nil {
			c.tags, c.next = nil, 0
			if errors.Is(err, fs.ErrNotExist) {
				// A checkpoint committed after the path was read and
				// removed the file: not corruption. The next step starts
				// over on the new checkpoint.
				return true, nil
			}
			s.scrubFailLocked(err)
			return false, err
		}
		if c.tags == nil {
			c.tags = sf.Tags()
		}
		if c.next < len(c.tags) {
			s.scrubStat.SectionsVerified++
			err = sf.VerifyTag(c.tags[c.next])
			c.next++
		}
		sf.Close()
		if err != nil {
			s.scrubFailLocked(err)
			c.next = 0
			return false, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return true, nil // budget spent; resume next step
		}
	}
	return false, nil
}

// ScrubWALFile re-verifies every frame CRC of the store's live WAL file
// through an independent descriptor. Exposed separately so callers can
// scrub the log without sweeping the checkpoint.
func ScrubWALFile(s *Store) (frames int, err error) {
	return storage.ScrubWALFile(s.j.WALPath())
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

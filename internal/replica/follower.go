package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"browserprov/internal/provgraph"
	"browserprov/internal/storage"
)

// journalName is the store's journal basename (matches provgraph).
const journalName = "provgraph"

// stateFile records what the follower knows about its leader across
// restarts (currently: the leader instance its applied history came
// from, so an unverifiable stream boundary can still detect a leader
// swap). JSON, written atomically.
const stateFile = "replica.state"

type followerState struct {
	LeaderInstance string `json:"leader_instance"`
}

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Dir is the local store directory.
	Dir string
	// LeaderURL is the leader's base URL, e.g. "http://leader:7171".
	LeaderURL string
	// ID names this follower in the leader's per-follower stats.
	// Defaults to hostname-pid.
	ID string
	// Client is the HTTP client for all leader calls. Defaults to one
	// with a 30 s timeout (bounding a stream long poll, which the leader
	// caps at 30 s of waiting).
	Client *http.Client
	// WaitMS is the long-poll wait the follower asks of the leader.
	// Default 1000.
	WaitMS int
	// MaxBytes caps one stream response. 0 means the leader's default.
	MaxBytes int
	// RetryInterval is the backoff after a transient error (leader
	// unreachable, 5xx). Default 500 ms.
	RetryInterval time.Duration
	// CheckpointEvery, when > 0, makes the follower write a local
	// checkpoint at most that often (trimming its WAL and making its
	// own restarts cheap). The follower is a normal store: checkpoints
	// work unchanged.
	CheckpointEvery time.Duration
	// Store are the store options for the local replica store.
	// Replica mode is forced on.
	Store provgraph.Options
	// OnSwap is called after a re-bootstrap replaces the store, with
	// the old (already closed) and new stores. provd uses it to rebuild
	// its query engine. May be nil.
	OnSwap func(old, new *provgraph.Store)
	// Logf receives progress lines (bootstrap, re-bootstrap, stream
	// errors). May be nil.
	Logf func(format string, args ...any)
}

// FollowerStats is the follower's replication state for /stats.
type FollowerStats struct {
	// AppliedLSN is the LSN after the last record applied locally.
	AppliedLSN uint64 `json:"applied_lsn"`
	// AppliedGeneration is the local store's generation counter (what
	// local Views pin). Leader and follower counters advance
	// independently — equal logical state does not imply equal
	// counters.
	AppliedGeneration uint64 `json:"applied_generation"`
	// LeaderNextLSN is the leader's next LSN as of the last exchange.
	LeaderNextLSN uint64 `json:"leader_next_lsn"`
	// LagRecords is LeaderNextLSN - AppliedLSN at the last exchange.
	LagRecords uint64 `json:"lag_records"`
	// LagSeconds is 0 while caught up, else seconds since the follower
	// last was.
	LagSeconds float64 `json:"lag_seconds"`
	// BootstrapSeconds is how long the last checkpoint bootstrap took.
	BootstrapSeconds float64 `json:"bootstrap_seconds"`
	// Rebootstraps counts full re-bootstraps after the initial one.
	Rebootstraps uint64 `json:"rebootstraps"`
	// BytesReceived counts WAL frame bytes applied from the stream.
	BytesReceived int64 `json:"bytes_received"`
	// LeaderInstance is the leader process the applied history came from.
	LeaderInstance string `json:"leader_instance"`
}

// Follower replicates one leader's store into a local read-only store.
// Create with NewFollower (which opens or bootstraps the local store
// synchronously), then drive with Run. Store returns the live store;
// after a re-bootstrap it returns the replacement, and OnSwap announces
// the change.
type Follower struct {
	opts  FollowerOptions
	store atomic.Pointer[provgraph.Store]

	appliedLSN   atomic.Uint64
	leaderNext   atomic.Uint64
	caughtUpAt   atomic.Int64 // unix nanos of the last caught-up moment
	bootstrapNS  atomic.Int64
	rebootstraps atomic.Uint64
	bytesIn      atomic.Int64
	forceBoot    atomic.Bool

	mu             sync.Mutex
	leaderInstance string
	lastCkpt       time.Time
}

// NewFollower opens the follower's local store, bootstrapping from the
// leader's checkpoint if there is no usable local state. A reachable
// leader is required only for that first bootstrap: with local state on
// disk, an unreachable leader degrades to serving stale reads.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.WaitMS <= 0 {
		opts.WaitMS = 1000
	}
	if opts.RetryInterval <= 0 {
		opts.RetryInterval = 500 * time.Millisecond
	}
	if opts.ID == "" {
		host, _ := os.Hostname()
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	opts.Store.Replica = true
	f := &Follower{opts: opts}
	f.caughtUpAt.Store(time.Now().UnixNano())
	f.loadState()

	st, err := provgraph.OpenWith(opts.Dir, opts.Store)
	if err != nil {
		f.logf("follower: local store unusable (%v); bootstrapping", err)
		st, err = f.bootstrap(context.Background())
		if err != nil {
			return nil, err
		}
	} else if st.NextLSN() == 0 && st.ReplicationInfo().Gen == 0 {
		// Brand-new directory: start from the leader's checkpoint rather
		// than replaying its whole history over the wire.
		st.Close()
		st, err = f.bootstrap(context.Background())
		if err != nil {
			return nil, err
		}
	}
	f.store.Store(st)
	f.appliedLSN.Store(st.NextLSN())
	return f, nil
}

// Store returns the current local store. The pointer changes when a
// re-bootstrap replaces it; see FollowerOptions.OnSwap.
func (f *Follower) Store() *provgraph.Store { return f.store.Load() }

// ForceRebootstrap makes the Run loop discard the local store and
// re-bootstrap from the leader's checkpoint at its next iteration, as
// if the leader had refused the stream. The self-healing path uses it
// when the local copy fails an integrity scrub beyond local repair:
// a follower's data is reproducible from its leader, so a corrupt
// replica is re-fetched rather than left quarantined.
func (f *Follower) ForceRebootstrap() { f.forceBoot.Store(true) }

// ID returns the follower's identity as reported to the leader.
func (f *Follower) ID() string { return f.opts.ID }

// Stats returns a snapshot of the follower's replication state.
func (f *Follower) Stats() FollowerStats {
	applied := f.appliedLSN.Load()
	leaderNext := f.leaderNext.Load()
	var lagRec uint64
	if leaderNext > applied {
		lagRec = leaderNext - applied
	}
	var lagSec float64
	if lagRec > 0 {
		lagSec = time.Since(time.Unix(0, f.caughtUpAt.Load())).Seconds()
	}
	f.mu.Lock()
	inst := f.leaderInstance
	f.mu.Unlock()
	var gen uint64
	if st := f.store.Load(); st != nil {
		gen = st.Generation()
	}
	return FollowerStats{
		AppliedLSN:        applied,
		AppliedGeneration: gen,
		LeaderNextLSN:     leaderNext,
		LagRecords:        lagRec,
		LagSeconds:        lagSec,
		BootstrapSeconds:  time.Duration(f.bootstrapNS.Load()).Seconds(),
		Rebootstraps:      f.rebootstraps.Load(),
		BytesReceived:     f.bytesIn.Load(),
		LeaderInstance:    inst,
	}
}

// Run tails the leader's WAL stream until ctx is done, applying frames
// into the local store, re-bootstrapping whenever the leader says the
// stream cannot safely continue. It returns ctx.Err() on cancellation.
func (f *Follower) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := f.streamOnce(ctx)
		if f.forceBoot.Swap(false) {
			err = errNeedBootstrap
		}
		switch {
		case err == nil:
			f.maybeCheckpoint()
		case errors.Is(err, errNeedBootstrap):
			st, berr := f.bootstrap(ctx)
			if berr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				f.logf("follower: re-bootstrap failed: %v", berr)
				f.sleep(ctx, f.opts.RetryInterval)
				continue
			}
			old := f.store.Swap(st)
			f.appliedLSN.Store(st.NextLSN())
			if f.opts.OnSwap != nil {
				f.opts.OnSwap(old, st)
			}
			// Counted only once the new store serves, so a reader that
			// sees the count also sees the swap.
			f.rebootstraps.Add(1)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			if ctx.Err() != nil {
				return ctx.Err()
			}
			f.sleep(ctx, f.opts.RetryInterval)
		default:
			f.logf("follower: stream: %v", err)
			f.sleep(ctx, f.opts.RetryInterval)
		}
	}
}

// errNeedBootstrap signals that the stream refused to continue (410 or
// 409): the local store cannot be caught up incrementally.
var errNeedBootstrap = errors.New("replica: stream requires re-bootstrap")

// streamOnce performs one long poll against the leader and applies
// whatever frames arrive. A nil return means "poll again" (including
// after a torn response — the next poll resumes from the local
// high-water mark); errNeedBootstrap means the leader refused.
func (f *Follower) streamOnce(ctx context.Context) error {
	st := f.store.Load()
	info := st.ReplicationInfo()
	from := info.NextLSN

	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("follower", f.opts.ID)
	q.Set("wait_ms", strconv.Itoa(f.opts.WaitMS))
	if f.opts.MaxBytes > 0 {
		q.Set("max_bytes", strconv.Itoa(f.opts.MaxBytes))
	}
	if info.HaveCRC {
		q.Set("expect_crc", strconv.FormatUint(uint64(info.LastCRC), 10))
	}
	f.mu.Lock()
	if f.leaderInstance != "" {
		q.Set("instance", f.leaderInstance)
	}
	f.mu.Unlock()

	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.opts.LeaderURL+PathWALStream+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone, http.StatusConflict:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		f.logf("follower: stream refused (%d) at lsn %d", resp.StatusCode, from)
		return errNeedBootstrap
	default:
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return fmt.Errorf("replica: stream: %s", resp.Status)
	}
	f.observeLeader(resp.Header.Get(HdrInstance))
	if v := resp.Header.Get(HdrNextLSN); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			f.leaderNext.Store(n)
		}
	}

	// Read the whole poll body, keeping whatever arrived before a torn
	// connection: complete frames in the prefix are still good.
	body, readErr := io.ReadAll(resp.Body)
	_ = readErr // a torn read surfaces as a torn frame below
	for len(body) > 0 {
		lsn, payload, n, err := parseFrame(body)
		if err != nil {
			// Torn or mangled in transit either way: apply nothing more
			// from this response; the next poll re-requests from the
			// high-water mark and the CRCs guard the replacement bytes.
			break
		}
		ok, err := st.ReplicateRecord(lsn, payload)
		if err != nil {
			if errors.Is(err, provgraph.ErrReplicaGap) {
				break // out-of-order response fragment; re-poll
			}
			return err
		}
		if ok {
			f.bytesIn.Add(int64(n))
		}
		body = body[n:]
	}
	applied := st.NextLSN()
	f.appliedLSN.Store(applied)
	if applied >= f.leaderNext.Load() {
		f.caughtUpAt.Store(time.Now().UnixNano())
	}
	return nil
}

// bootstrap wipes the local journal and rebuilds it from the leader's
// current checkpoint, returning a freshly opened replica store
// positioned to stream from the checkpoint's start LSN. The previous
// store (if any) must already be unusable or replaced by the caller —
// bootstrap closes the one it holds.
func (f *Follower) bootstrap(ctx context.Context) (*provgraph.Store, error) {
	if st := f.store.Load(); st != nil {
		st.Close()
	}
	start := time.Now()
	var lastErr error
	// A checkpoint can supersede the meta we fetched before the download
	// finishes; the 410 reply carries fresh meta, so just try again —
	// bounded, since checkpoints are much rarer than download attempts.
	for attempt := 0; attempt < 5; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		meta, err := f.fetchMeta(ctx)
		if err != nil {
			return nil, err
		}
		st, err := f.bootstrapFrom(ctx, meta)
		if err == nil {
			f.bootstrapNS.Store(int64(time.Since(start)))
			f.observeLeader(meta.Instance)
			f.leaderNext.Store(meta.NextLSN)
			f.logf("follower: bootstrapped at gen %d, start lsn %d (%.2fs)",
				meta.CheckpointGen, meta.StartLSN, time.Since(start).Seconds())
			return st, nil
		}
		lastErr = err
		if !errors.Is(err, errCheckpointSuperseded) {
			return nil, err
		}
		f.logf("follower: checkpoint gen %d superseded mid-download; retrying", meta.CheckpointGen)
	}
	return nil, fmt.Errorf("replica: bootstrap: %w", lastErr)
}

var errCheckpointSuperseded = errors.New("replica: checkpoint superseded during download")

// bootstrapFrom attempts one bootstrap against a specific meta.
func (f *Follower) bootstrapFrom(ctx context.Context, meta Meta) (*provgraph.Store, error) {
	if err := f.wipeJournal(); err != nil {
		return nil, err
	}
	if meta.CheckpointGen > 0 {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			f.opts.LeaderURL+PathCheckpoint+strconv.FormatUint(meta.CheckpointGen, 10), nil)
		if err != nil {
			return nil, err
		}
		resp, err := f.opts.Client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusGone {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			return nil, errCheckpointSuperseded
		}
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			return nil, fmt.Errorf("replica: checkpoint download: %s", resp.Status)
		}
		// The headers are authoritative for the bytes in THIS response
		// (captured atomically on the leader); the meta we planned from
		// could already be stale.
		gen, err1 := strconv.ParseUint(resp.Header.Get(HdrGen), 10, 64)
		startLSN, err2 := strconv.ParseUint(resp.Header.Get(HdrStartLSN), 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("replica: checkpoint download: bad coordinate headers")
		}
		path := storage.SnapshotFilePath(f.opts.Dir, journalName, gen)
		if err := downloadTo(path, resp.Body); err != nil {
			return nil, fmt.Errorf("replica: checkpoint download: %w", err)
		}
		if err := storage.WriteJournalMeta(f.opts.Dir, journalName, gen, startLSN); err != nil {
			return nil, err
		}
	}
	st, err := provgraph.OpenWith(f.opts.Dir, f.opts.Store)
	if err != nil {
		return nil, fmt.Errorf("replica: open bootstrapped store: %w", err)
	}
	return st, nil
}

// wipeJournal removes the local journal files (and any temp debris) so
// a bootstrap starts from a clean slate. The directory itself survives:
// it may be a mount point.
func (f *Follower) wipeJournal() error {
	if err := os.MkdirAll(f.opts.Dir, 0o755); err != nil {
		return err
	}
	matches, err := filepath.Glob(filepath.Join(f.opts.Dir, journalName+".*"))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// downloadTo streams body into path and fsyncs it: the checkpoint must
// be durable before the journal meta names it.
func downloadTo(path string, body io.Reader) error {
	fd, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(fd, body); err != nil {
		fd.Close()
		os.Remove(path)
		return err
	}
	if err := fd.Sync(); err != nil {
		fd.Close()
		os.Remove(path)
		return err
	}
	return fd.Close()
}

func (f *Follower) fetchMeta(ctx context.Context) (Meta, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.opts.LeaderURL+PathMeta, nil)
	if err != nil {
		return Meta{}, err
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return Meta{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Meta{}, fmt.Errorf("replica: meta: %s", resp.Status)
	}
	var m Meta
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return Meta{}, fmt.Errorf("replica: meta: %w", err)
	}
	return m, nil
}

// observeLeader records (and persists) the leader instance the follower
// is applying from, for the unverifiable-boundary check after restarts.
func (f *Follower) observeLeader(instance string) {
	if instance == "" {
		return
	}
	f.mu.Lock()
	changed := f.leaderInstance != instance
	f.leaderInstance = instance
	f.mu.Unlock()
	if changed {
		f.saveState(instance)
	}
}

func (f *Follower) statePath() string { return filepath.Join(f.opts.Dir, stateFile) }

func (f *Follower) loadState() {
	b, err := os.ReadFile(f.statePath())
	if err != nil {
		return
	}
	var st followerState
	if json.Unmarshal(b, &st) == nil {
		f.leaderInstance = st.LeaderInstance
	}
}

func (f *Follower) saveState(instance string) {
	b, err := json.Marshal(followerState{LeaderInstance: instance})
	if err != nil {
		return
	}
	tmp := f.statePath() + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return
	}
	os.Rename(tmp, f.statePath()) //nolint:errcheck // advisory state
}

func (f *Follower) maybeCheckpoint() {
	if f.opts.CheckpointEvery <= 0 {
		return
	}
	f.mu.Lock()
	due := time.Since(f.lastCkpt) >= f.opts.CheckpointEvery
	if due {
		f.lastCkpt = time.Now()
	}
	f.mu.Unlock()
	if !due {
		return
	}
	if st := f.store.Load(); st != nil {
		if err := st.Checkpoint(); err != nil && !errors.Is(err, provgraph.ErrClosed) {
			f.logf("follower: local checkpoint: %v", err)
		}
	}
}

func (f *Follower) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

func (f *Follower) logf(format string, args ...any) {
	if f.opts.Logf != nil {
		f.opts.Logf(format, args...)
	}
}

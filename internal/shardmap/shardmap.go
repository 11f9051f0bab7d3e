// Package shardmap routes tenant IDs to independent provenance stores:
// one provd process, millions of histories.
//
// Each tenant owns a full provgraph.Store (its own WAL, checkpoint and
// query engine) under a fan-out directory root/<2-hex>/<tenant>/ — the
// same static-partition decomposition the parallel fast-marching
// literature uses: per-block (per-tenant) work shares no locks, and
// only the stats rollup is a barrier. Stores open lazily on first touch
// through the mmap bulk loader and close LRU under a configurable cap,
// so the resident footprint is bounded by the cap, not the tenant
// population.
//
// Handles are refcounted: Get pins a tenant's store open, Release
// unpins it; eviction only ever closes stores with zero handles, so a
// pinned View or in-flight checkpoint never races a close. Store.Close
// actually releases resources (the checkpoint mapping is unmapped once
// its last reader finishes — see provgraph.Store.PinRead), which is
// what makes a 10k-tenant sweep viable at all.
package shardmap

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"browserprov/internal/provgraph"
	"browserprov/internal/query"
)

// DefaultMaxOpen is the open-store cap when Options.MaxOpen is 0.
const DefaultMaxOpen = 128

// ErrMapClosed reports an operation on a closed Map.
var ErrMapClosed = errors.New("shardmap: map is closed")

// ErrReleased reports use of a Handle after its Release.
var ErrReleased = errors.New("shardmap: handle already released")

// Options configures a Map.
type Options struct {
	// MaxOpen caps concurrently open tenant stores. 0 means
	// DefaultMaxOpen. The cap is hard: a Get that cannot evict (every
	// open store is pinned) blocks until a handle is released.
	MaxOpen int
	// Store is applied to every tenant store opened through the map.
	// Enable Store.RetainPrevCheckpoint if quarantined tenants should be
	// locally repairable (see Quarantine): without it a corrupt current
	// checkpoint has no fallback generation.
	Store provgraph.Options
	// Query is the base query options of every tenant's engine.
	Query query.Options
	// StrikeLimit is how many strikes (panics or integrity faults
	// reported via Strike) a tenant accumulates before it is
	// quarantined. 0 means DefaultStrikeLimit.
	StrikeLimit int
	// Rebootstrap, when set, is the repair worker's last resort: called
	// with a quarantined tenant whose local repair failed, it should
	// replace the tenant's store directory with a good copy (e.g. from a
	// replication leader). A nil return re-admits the tenant after
	// verification.
	Rebootstrap func(tenant, dir string) error
}

// entry states. An entry exists for every tenant the map has ever seen
// (including tenants discovered by the open-time disk scan); only
// stateOpen entries hold a live store.
const (
	stateClosed  = iota // no live store; store/eng nil
	stateOpening        // a Get is opening the store off-lock
	stateOpen           // live store; refs handles outstanding
	stateClosing        // eviction or shutdown is closing off-lock
)

type entry struct {
	id    string
	dir   string
	state int
	store *provgraph.Store
	eng   *query.Engine
	refs  int           // outstanding handles; evictable only at 0
	el    *list.Element // position in the LRU list while open
	// onDisk marks tenants with persisted state: their next open counts
	// as a reopen (WAL tail + checkpoint replay), not a first create.
	onDisk bool
	// Quarantine state (see quarantine.go): a quarantined tenant rejects
	// all Gets with ErrQuarantined while the repair worker owns its
	// directory; strikes accumulate toward StrikeLimit.
	quarantined bool
	qreason     string
	repairing   bool
	strikes     int
}

// Map routes tenant IDs to lazily-opened, LRU-evicted provenance
// stores. Safe for concurrent use.
type Map struct {
	root string
	opts Options

	mu   sync.Mutex
	cond *sync.Cond
	// entries holds one entry per tenant ever seen; lru orders the open
	// entries, most recently touched first.
	entries map[string]*entry
	lru     *list.List
	open    int // stateOpening + stateOpen + stateClosing entries

	opens     uint64
	reopens   uint64
	evictions uint64
	closed    bool

	// Self-healing counters (see quarantine.go).
	quarantines uint64
	repairs     uint64
	repairFails uint64
}

// Open opens (or creates) a shard map rooted at root. Existing tenants
// are discovered by scanning the fan-out directories (they stay closed
// until first touch).
func Open(root string, opts Options) (*Map, error) {
	if opts.MaxOpen <= 0 {
		opts.MaxOpen = DefaultMaxOpen
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	m := &Map{
		root:    root,
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
	m.cond = sync.NewCond(&m.mu)
	prefixes, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, p := range prefixes {
		if !p.IsDir() || len(p.Name()) != 2 {
			continue
		}
		tenants, err := os.ReadDir(fmt.Sprintf("%s/%s", root, p.Name()))
		if err != nil {
			continue
		}
		for _, t := range tenants {
			if !t.IsDir() || ValidateTenantID(t.Name()) != nil {
				continue
			}
			id := t.Name()
			m.entries[id] = &entry{id: id, dir: tenantDir(root, id), onDisk: true}
		}
	}
	return m, nil
}

// Root returns the shard root directory.
func (m *Map) Root() string { return m.root }

// Get returns a pinned handle on tenant's store, opening it (replaying
// its checkpoint and WAL tail through the mmap bulk loader) on first
// touch. While the handle is held the store cannot be evicted; callers
// must Release it. When the open-store cap is reached, Get evicts the
// least recently used unpinned store; if every open store is pinned it
// blocks until one is released. Quarantined tenants fail with
// ErrQuarantined without touching their store.
func (m *Map) Get(tenant string) (*Handle, error) {
	return m.GetCtx(context.Background(), tenant)
}

// GetCtx is Get bounded by a context: a caller blocked waiting for a
// free slot under the MaxOpen cap (or for a settling open/close
// transition) unblocks with ctx.Err() when the context is cancelled,
// instead of waiting indefinitely on a fully-pinned map.
func (m *Map) GetCtx(ctx context.Context, tenant string) (*Handle, error) {
	if err := ValidateTenantID(tenant); err != nil {
		return nil, err
	}
	if ctx.Done() != nil {
		// Wake every cond waiter on cancellation; the loop below rechecks
		// ctx before each wait, so this Get observes its own cancel. The
		// broadcast takes the map lock: a concurrent waiter cannot slip
		// between our ctx check and cond.Wait (Wait releases the lock the
		// broadcast needs, so the wake cannot be lost).
		stop := context.AfterFunc(ctx, func() {
			m.mu.Lock()
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer stop()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed {
			return nil, ErrMapClosed
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := m.entries[tenant]
		if e == nil {
			e = &entry{id: tenant, dir: tenantDir(m.root, tenant)}
			m.entries[tenant] = e
		}
		if e.quarantined {
			return nil, &QuarantinedError{Tenant: e.id, Reason: e.qreason}
		}
		switch e.state {
		case stateOpen:
			e.refs++
			m.lru.MoveToFront(e.el)
			return &Handle{m: m, e: e}, nil
		case stateOpening, stateClosing:
			// Another goroutine is transitioning this tenant; wait for it
			// to settle and re-evaluate.
			m.cond.Wait()
		case stateClosed:
			if m.open >= m.opts.MaxOpen {
				if !m.evictLocked() {
					// Everything open is pinned; wait for a Release (or a
					// settling transition) and retry.
					m.cond.Wait()
				}
				continue
			}
			// Reserve the slot and open off-lock: the open replays a
			// checkpoint and WAL, much too slow to hold every other tenant
			// hostage for.
			e.state = stateOpening
			m.open++
			m.mu.Unlock()
			st, eng, err := m.openStore(e)
			m.mu.Lock()
			if err != nil {
				e.state = stateClosed
				m.open--
				m.cond.Broadcast()
				return nil, fmt.Errorf("shardmap: open tenant %s: %w", tenant, err)
			}
			e.store, e.eng = st, eng
			e.state = stateOpen
			e.refs = 1
			e.el = m.lru.PushFront(e)
			m.opens++
			if e.onDisk {
				m.reopens++
			}
			e.onDisk = true
			m.cond.Broadcast()
			return &Handle{m: m, e: e}, nil
		}
	}
}

// openStore opens one tenant's store and engine. Runs without the map
// lock; the entry is in stateOpening so no one else touches it.
func (m *Map) openStore(e *entry) (*provgraph.Store, *query.Engine, error) {
	st, err := provgraph.OpenWith(e.dir, m.opts.Store)
	if err != nil {
		return nil, nil, err
	}
	return st, query.NewEngine(st, m.opts.Query), nil
}

// evictLocked closes the least recently used unpinned open store.
// Returns false when every open store is pinned (or transitioning).
// Caller holds m.mu; the store close itself runs off-lock.
func (m *Map) evictLocked() bool {
	for el := m.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.state == stateOpen && e.refs == 0 {
			m.evictions++
			m.closeEntryLocked(e)
			return true
		}
	}
	return false
}

// closeEntryLocked transitions an open, unpinned entry to closed,
// dropping the map lock for the store close itself (which may fsync the
// WAL and unmap the checkpoint). Caller holds m.mu; holds it again on
// return.
func (m *Map) closeEntryLocked(e *entry) {
	e.state = stateClosing
	m.lru.Remove(e.el)
	e.el = nil
	st := e.store
	e.store, e.eng = nil, nil
	m.mu.Unlock()
	err := st.Close()
	m.mu.Lock()
	_ = err // the WAL was synced by the last commit; nothing to salvage here
	e.state = stateClosed
	m.open--
	m.cond.Broadcast()
}

// release unpins one handle (Handle.Release).
func (m *Map) release(e *entry) {
	m.mu.Lock()
	e.refs--
	if e.refs == 0 {
		// A Get blocked on the cap (or a draining Close) may now proceed.
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// OpenTenants returns the IDs of currently open tenant stores, most
// recently used first.
func (m *Map) OpenTenants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, m.lru.Len())
	for el := m.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).id)
	}
	return out
}

// Close drains the map: new Gets fail with ErrMapClosed, outstanding
// handles are waited for, and every open store is closed. Idempotent.
func (m *Map) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	for {
		busy := false
		for _, e := range m.entries {
			if e.state == stateOpening || e.state == stateClosing || (e.state == stateOpen && e.refs > 0) {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		m.cond.Wait()
	}
	// Collect first: closeEntryLocked drops the lock, and the entries
	// map must not be iterated across that window (closed=true stops all
	// mutation, but a stable worklist is simpler to reason about).
	var open []*entry
	for _, e := range m.entries {
		if e.state == stateOpen {
			open = append(open, e)
		}
	}
	for _, e := range open {
		m.closeEntryLocked(e)
	}
	return nil
}

// Stats is the global rollup: tenant population, open-store residency
// and lifecycle counters.
type Stats struct {
	// OpenTenants is the number of currently open stores (bounded by the
	// cap); KnownTenants counts every tenant seen on disk or touched.
	OpenTenants  int `json:"open_tenants"`
	KnownTenants int `json:"known_tenants"`
	// Opens counts store opens; Reopens the subset that replayed
	// existing on-disk state; Evictions the LRU closes under the cap.
	Opens     uint64 `json:"opens"`
	Reopens   uint64 `json:"reopens"`
	Evictions uint64 `json:"evictions"`
	// Quarantined is the number of currently quarantined tenants;
	// Quarantines/Repairs/RepairFailures are lifetime counters of the
	// self-healing loop (see Quarantine).
	Quarantined    int    `json:"quarantined"`
	Quarantines    uint64 `json:"quarantines"`
	Repairs        uint64 `json:"repairs"`
	RepairFailures uint64 `json:"repair_failures"`
	// MappedBytes/HeapBytes aggregate MappedInfo over open stores: the
	// resident checkpoint footprint the cap bounds.
	MappedBytes int64 `json:"mapped_bytes"`
	HeapBytes   int64 `json:"heap_load_bytes"`
}

// Stats returns the global rollup across all tenants.
func (m *Map) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		KnownTenants:   len(m.entries),
		Opens:          m.opens,
		Reopens:        m.reopens,
		Evictions:      m.evictions,
		Quarantines:    m.quarantines,
		Repairs:        m.repairs,
		RepairFailures: m.repairFails,
	}
	for _, e := range m.entries {
		if e.quarantined {
			st.Quarantined++
		}
	}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		st.OpenTenants++
		mi := e.store.MappedInfo()
		st.MappedBytes += mi.MappedBytes
		st.HeapBytes += mi.HeapBytes
	}
	return st
}

// TenantStats is the per-tenant detail, gathered on demand.
type TenantStats struct {
	Tenant     string `json:"tenant"`
	Generation uint64 `json:"generation"`
	Nodes      int    `json:"nodes"`
	Edges      int    `json:"edges"`
	SizeOnDisk int64  `json:"size_on_disk_bytes"`
	// Checkpoint health mirrors the single-store /stats fields.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	WALBytes        int64 `json:"wal_bytes"`
	MappedBytes     int64 `json:"mapped_bytes"`
	HeapBytes       int64 `json:"heap_load_bytes"`
}

// TenantStats opens (or touches) tenant and reports its store's stats.
func (m *Map) TenantStats(tenant string) (TenantStats, error) {
	h, err := m.Get(tenant)
	if err != nil {
		return TenantStats{}, err
	}
	defer h.Release()
	st := h.Store()
	counts := st.Snapshot().Stats()
	ck := st.CheckpointInfo()
	mi := st.MappedInfo()
	return TenantStats{
		Tenant:          tenant,
		Generation:      st.Generation(),
		Nodes:           counts.Nodes,
		Edges:           counts.Edges,
		SizeOnDisk:      st.SizeOnDisk(),
		CheckpointBytes: ck.Bytes,
		WALBytes:        ck.WALBytes,
		MappedBytes:     mi.MappedBytes,
		HeapBytes:       mi.HeapBytes,
	}, nil
}

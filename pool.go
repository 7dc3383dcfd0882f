package multimap

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/pool"
	"repro/internal/query"
	"repro/internal/sfc"
	"repro/internal/shard"
)

// This file is the multi-tenant placement layer: a Pool of simulated
// drives hosts many datasets on thin-provisioned volumes with a full
// lifecycle — Create (a tenant added under live traffic), Grow (online
// capacity extension, so §4.6 overflow growth never requires
// re-opening), Snapshot and Clone (copy-on-write: clone reads fall
// through to the shared frozen extents until a write faults the track
// into private storage), and Destroy. Each tenant is an ordinary Store
// whose shard volumes are extent-mapped views over the pooled drives;
// a tenant whose extents fully own their drives behaves bit-identically
// to the classic single-tenant path.

// PoolOption configures OpenPool.
type PoolOption func(*poolConfig) error

type poolConfig struct {
	models   []DiskModel
	depth    int
	autoGrow int64
}

// WithPoolDrives selects the pool's member drives by model name, one
// drive per name (repeat a name for several identical drives). The
// default pool is the paper's testbed pair: one Atlas 10K III and one
// Cheetah 36ES.
func WithPoolDrives(models ...DiskModel) PoolOption {
	return func(c *poolConfig) error {
		if len(models) == 0 {
			return fmt.Errorf("multimap: WithPoolDrives needs at least one drive model")
		}
		c.models = append([]DiskModel(nil), models...)
		return nil
	}
}

// WithPoolDepth sets the adjacency depth D exported by every volume
// carved from the pool (0 selects the paper's D=128).
func WithPoolDepth(d int) PoolOption {
	return func(c *poolConfig) error {
		if d < 0 {
			return fmt.Errorf("multimap: adjacency depth must be non-negative")
		}
		c.depth = d
		return nil
	}
}

// WithAutoGrow turns on overflow auto-grow for every tenant created in
// (or cloned into) the pool: an updatable tenant whose insert or bulk
// load exhausts its overflow page pool grows itself by increment
// blocks through the ordinary Grow path — online, under live traffic —
// and retries the failed update once, instead of surfacing
// core.ErrOverflowExhausted to the caller. A pool that is genuinely
// out of free extents still errors (the grow fails and the exhaustion
// surfaces). Auto-grown capacity is accounted per drive in
// Pool.Usage's AutoGrownBlocks, so thin-provisioning drift stays
// auditable. The increment must be positive.
func WithAutoGrow(increment int64) PoolOption {
	return func(c *poolConfig) error {
		if increment <= 0 {
			return fmt.Errorf("multimap: auto-grow increment must be positive, got %d", increment)
		}
		c.autoGrow = increment
		return nil
	}
}

// Pool is a set of simulated drives hosting many tenant datasets on
// thin-provisioned volumes. All lifecycle methods are safe for
// concurrent use with each other and with live query traffic on any
// tenant's Store — capacity changes publish atomically to the running
// services.
type Pool struct {
	mu       sync.Mutex
	p        *pool.Pool
	tenants  map[string]*Tenant
	autoGrow int64 // WithAutoGrow increment; 0 = off
}

// OpenPool builds a drive pool (see WithPoolDrives / WithPoolDepth).
func OpenPool(opts ...PoolOption) (*Pool, error) {
	var pc poolConfig
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("multimap: nil PoolOption")
		}
		if err := opt(&pc); err != nil {
			return nil, err
		}
	}
	if len(pc.models) == 0 {
		pc.models = []DiskModel{AtlasTenKIII, CheetahThirtySixES}
	}
	geoms := make([]*disk.Geometry, 0, len(pc.models))
	for _, m := range pc.models {
		g, err := disk.ModelByName(string(m))
		if err != nil {
			return nil, err
		}
		geoms = append(geoms, g)
	}
	pp, err := pool.New(pc.depth, geoms...)
	if err != nil {
		return nil, err
	}
	return &Pool{p: pp, tenants: make(map[string]*Tenant), autoGrow: pc.autoGrow}, nil
}

// Tenant is one dataset hosted by a Pool: its Store plus the
// thin-provisioned shard volumes backing it.
type Tenant struct {
	name    string
	store   *Store
	vols    []*pool.Vol
	allowed []int // WithDrives restriction; nil = every pool drive
}

// Store returns the tenant's dataset store — the ordinary query and
// update surface.
func (t *Tenant) Store() *Store { return t.store }

// Blocks returns the tenant's allocated pool capacity in blocks (thin
// accounting: what its volumes' extents actually occupy, not what the
// dataset has written).
func (t *Tenant) Blocks() int64 {
	var n int64
	for _, v := range t.vols {
		n += v.Blocks()
	}
	return n
}

// TenantInfo is one tenant's accounting row.
type TenantInfo struct {
	Name   string
	Shards int
	Blocks int64 // allocated pool blocks (thin accounting)
}

// Tenants returns the pool's tenant accounting, sorted by name.
func (p *Pool) Tenants() []TenantInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantInfo, 0, len(p.tenants))
	for _, t := range p.tenants {
		out = append(out, TenantInfo{Name: t.name, Shards: len(t.vols), Blocks: t.Blocks()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DriveUsage is one pool drive's space accounting.
type DriveUsage struct {
	Name        string `json:"name"` // drive model name
	TotalBlocks int64  `json:"total_blocks"`
	FreeBlocks  int64  `json:"free_blocks"`
	// AutoGrownBlocks is how many of the drive's allocated blocks came
	// from WithAutoGrow growths rather than explicit Create/Grow calls —
	// the thin-provisioning drift auto-grow introduced. The blocks stay
	// counted while a tenant, snapshot or clone references them, and
	// leave the count with the space. Always 0 without WithAutoGrow.
	AutoGrownBlocks int64 `json:"auto_grown_blocks,omitempty"`
}

// Usage returns per-drive space accounting, in drive index order.
func (p *Pool) Usage() []DriveUsage {
	us := p.p.Usage()
	out := make([]DriveUsage, len(us))
	for i, u := range us {
		out[i] = DriveUsage(u)
	}
	return out
}

// rotated returns the allowed drive list (nil = all n drives) rotated
// to start at position i mod len — shard i leads with a different
// drive while spilling stays inside the allowed set.
func rotated(n int, allowed []int, i int) []int {
	if len(allowed) == 0 {
		allowed = make([]int, n)
		for k := range allowed {
			allowed[k] = k
		}
	}
	k := i % len(allowed)
	out := make([]int, 0, len(allowed))
	out = append(out, allowed[k:]...)
	return append(out, allowed[:k]...)
}

// Create provisions a new tenant: thin volumes are carved from the
// pool (one per shard, shard i preferring drive i mod the allowed
// list) and the dataset is mapped onto them exactly as Open would.
// All Open options apply, plus the pool-only WithCapacity (initial
// capacity; default auto-sizes from the dataset shape, growing and
// retrying until the mapping fits) and WithDrives (restrict placement
// to given drives). Unlike Open, declustering is the default
// (WithDiskIdx(-1)); pass WithDiskIdx explicitly to pin. Creation is
// safe under live traffic on other tenants.
func (p *Pool) Create(ctx context.Context, name string, kind Mapping, dims []int, opts ...Option) (*Tenant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if name == "" {
		return nil, fmt.Errorf("multimap: tenant name must be non-empty")
	}
	c := defaultConfig()
	c.poolOpen = true
	c.diskIdx = -1
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("multimap: nil Option")
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.tenants[name]; dup {
		return nil, fmt.Errorf("multimap: tenant %q already exists", name)
	}
	perShard, attempts, err := p.sizeFor(dims, c)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		vols, err := p.provision(c.shards, perShard, c.drives)
		if err != nil {
			if lastErr != nil {
				// The doubled retry ran the pool dry: the mapping error,
				// not the allocator's, names the real problem.
				return nil, fmt.Errorf("%w (grown to %d blocks/shard: %v)", lastErr, perShard, err)
			}
			return nil, err
		}
		wrapped := make([]*Volume, c.shards)
		for i, pv := range vols {
			wrapped[i] = newVolume(pv.Volume())
		}
		st, err := open(wrapped, kind, dims, c)
		if err == nil {
			if p.autoGrow > 0 && st.cells != nil {
				st.autoGrow = p.autoGrowHook(name)
			}
			t := &Tenant{name: name, store: st, vols: vols, allowed: c.drives}
			p.tenants[name] = t
			return t, nil
		}
		for _, w := range wrapped {
			w.Close()
		}
		for _, pv := range vols {
			pv.Free()
		}
		lastErr = err
		perShard *= 2
	}
	return nil, lastErr
}

// sizeFor estimates a tenant's initial per-shard capacity and how many
// doubling attempts Create may take. An explicit WithCapacity is
// honoured exactly, one attempt; otherwise the estimate covers the
// cells, the default overflow reserve, and basic-cube padding slack,
// and Create doubles on mapping failure. A shard count the grid cannot
// split, or a cell count that overflows, fails here, before any volume
// is provisioned.
func (p *Pool) sizeFor(dims []int, c config) (perShard int64, attempts int, err error) {
	if err := checkShards(dims, c.shards); err != nil {
		return 0, 0, err
	}
	shards := int64(c.shards)
	if c.capacity > 0 {
		return (c.capacity + shards - 1) / shards, 1, nil
	}
	cells, err := sfc.NumCells(dims)
	if err != nil {
		return 0, 0, err
	}
	per := min(cells/shards, math.MaxInt64/4) // no pool holds more; the sums below cannot overflow
	if c.updatable {
		per += per/8 + 1
	}
	// Track-aligned basic cubes can inflate the mapped footprint far
	// past one block a cell on small datasets, so give the doubling loop
	// enough headroom to find the real size.
	return per*2 + 1, 10, nil
}

// provision carves one thin volume per shard. Either every shard
// volume is allocated or none is.
func (p *Pool) provision(shards int, perShard int64, allowed []int) ([]*pool.Vol, error) {
	vols := make([]*pool.Vol, 0, shards)
	for i := 0; i < shards; i++ {
		pv, err := p.p.NewVolume(perShard, rotated(p.p.NumDrives(), allowed, i))
		if err != nil {
			for _, v := range vols {
				v.Free()
			}
			return nil, err
		}
		vols = append(vols, pv)
	}
	return vols, nil
}

// Grow extends a tenant's capacity by at least blocks blocks, split
// across its shard volumes, while the tenant serves traffic: the new
// extents publish atomically to the running services (in-flight
// batches finish on the old table; the next admission sees the grown
// volume). On an updatable store the new blocks immediately join the
// shard's overflow pools, so §4.6 chains keep growing past the initial
// capacity without re-opening anything.
func (p *Pool) Grow(ctx context.Context, name string, blocks int64) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if blocks <= 0 {
		return fmt.Errorf("multimap: grow must add a positive number of blocks, got %d", blocks)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[name]
	if !ok {
		return fmt.Errorf("multimap: no tenant %q", name)
	}
	return p.growLocked(t, blocks, false)
}

// growLocked is Grow's body, shared with the auto-grow hook, which
// passes auto. Caller holds p.mu.
func (p *Pool) growLocked(t *Tenant, blocks int64, auto bool) error {
	shards := int64(len(t.vols))
	per := (blocks + shards - 1) / shards
	for i, pv := range t.vols {
		lv := pv.Volume()
		old := lv.TotalBlocks()
		if err := pv.Grow(per, rotated(p.p.NumDrives(), t.allowed, i), auto); err != nil {
			return err
		}
		if t.store.cells == nil {
			continue
		}
		// Hand the new segments to the shard's overflow pool, one free
		// extent per segment (the same per-disk carving the initial pool
		// uses, so chains keep spreading).
		var add []lvm.Request
		for si := 0; si < lv.NumDisks(); si++ {
			if lv.DiskStart(si) >= old {
				add = append(add, lvm.Request{VLBN: lv.DiskStart(si), Count: int(lv.DiskBlocks(si))})
			}
		}
		if err := t.store.cells[i].AddOverflow(add); err != nil {
			return err
		}
	}
	return nil
}

// autoGrowHook builds the Store-level retry hook for one tenant: grow
// by the pool's increment through the ordinary Grow path, marked as an
// auto-grow so Usage accounts its blocks per drive. Safe under live
// traffic — the update path invokes it outside any pool lock.
func (p *Pool) autoGrowHook(name string) func() error {
	return func() error {
		p.mu.Lock()
		defer p.mu.Unlock()
		t, ok := p.tenants[name]
		if !ok {
			return fmt.Errorf("multimap: no tenant %q", name)
		}
		return p.growLocked(t, p.autoGrow, true)
	}
}

// Snapshot is a frozen, copy-on-write image of a tenant at one
// instant: the volumes' extents at snapshot time plus the dataset's
// chain bookkeeping. Clone materializes new tenants from it; Free
// releases its extent references once no more clones are wanted.
// Snapshots keep their extents alive independently of the source
// tenant, so a snapshot outlives even a destroyed parent.
type Snapshot struct {
	pool   *Pool
	tenant string
	snaps  []*pool.Snap
	cells  []*core.CellStore // frozen chain state; nil for read-only tenants
	grp    *shard.Group      // parent group at snapshot time (shares Mappers)
	cfg    config
	eo     query.ExecOptions
	freed  bool
}

// Snapshot freezes a tenant's current state copy-on-write. The
// tenant's write-back dirty buffers are flushed first, so the frozen
// image carries every acknowledged write — the coherence contract
// between COW and write-back: dirty data never straddles a freeze.
// After the snapshot the source tenant keeps serving; its next write
// to a frozen track pays a copy-out fault (Stats.CowFaultBlocks).
func (p *Pool) Snapshot(ctx context.Context, name string) (*Snapshot, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[name]
	if !ok {
		return nil, fmt.Errorf("multimap: no tenant %q", name)
	}
	if err := t.store.def.Flush(ctx); err != nil {
		return nil, err
	}
	s := &Snapshot{pool: p, tenant: name, grp: t.store.grp, cfg: t.store.cfg, eo: t.store.eo}
	for _, pv := range t.vols {
		sn, err := pv.Snapshot()
		if err != nil {
			s.free()
			return nil, err
		}
		s.snaps = append(s.snaps, sn)
	}
	if t.store.cells != nil {
		s.cells = make([]*core.CellStore, len(t.store.cells))
		for i, cs := range t.store.cells {
			// Frozen copy keeps the parent's locator; Clone rebinds it.
			s.cells[i] = cs.Clone(t.store.grp.Member(i).Map.CellVLBN)
		}
	}
	return s, nil
}

// Free releases the snapshot's extent references. Idempotent; existing
// clones are unaffected (they hold their own references). It takes the
// pool's lock, as Clone does, so a Free racing a Clone of the same
// snapshot either precedes it (the clone fails) or follows it.
func (s *Snapshot) Free() {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	s.free()
}

// free is Free under the pool's lock, which the caller holds.
func (s *Snapshot) free() {
	if s.freed {
		return
	}
	s.freed = true
	for _, sn := range s.snaps {
		if sn != nil {
			sn.Free()
		}
	}
}

// Clone materializes a snapshot as a new tenant. The clone's volumes
// reference the snapshot's extents copy-on-write — reads fall through
// to the shared frozen blocks, paying zero extra pool space, until a
// write faults its track into storage the clone owns. The clone
// shares the parent's cell placement outright (the volumes carry
// bit-for-bit the parent's blocks at snapshot time), runs its own
// services configured like the parent's, and diverges independently
// from the first write on either side.
func (p *Pool) Clone(ctx context.Context, snap *Snapshot, name string) (*Tenant, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, fmt.Errorf("multimap: nil Snapshot")
	}
	if name == "" {
		return nil, fmt.Errorf("multimap: tenant name must be non-empty")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if snap.freed {
		return nil, fmt.Errorf("multimap: snapshot of %q already freed", snap.tenant)
	}
	if _, dup := p.tenants[name]; dup {
		return nil, fmt.Errorf("multimap: tenant %q already exists", name)
	}
	t := &Tenant{name: name, allowed: snap.cfg.drives}
	fail := func(err error) (*Tenant, error) {
		for _, pv := range t.vols {
			pv.Free()
		}
		return nil, err
	}
	for _, sn := range snap.snaps {
		pv, err := sn.Clone()
		if err != nil {
			return fail(err)
		}
		t.vols = append(t.vols, pv)
	}
	wrapped := make([]*Volume, len(t.vols))
	for i, pv := range t.vols {
		wrapped[i] = newVolume(pv.Volume())
	}
	svcs := services(wrapped)
	grp, err := shard.Rebind(snap.grp, svcs, snap.eo)
	if err != nil {
		return fail(err)
	}
	st := newStore(wrapped, grp, snap.cfg, snap.eo)
	if snap.cells != nil {
		st.cells = make([]*core.CellStore, len(snap.cells))
		for i, cs := range snap.cells {
			st.cells[i] = cs.Clone(grp.Member(i).Map.CellVLBN)
		}
	}
	if p.autoGrow > 0 && st.cells != nil {
		st.autoGrow = p.autoGrowHook(name)
	}
	if err := configure(svcs, snap.cfg); err != nil {
		return fail(err)
	}
	t.store = st
	p.tenants[name] = t
	return t, nil
}

// Destroy retires a tenant: its store is closed (flushing write-back
// buffers and draining the shard services), its volumes' extent
// references are released back to the pool, and its name becomes free.
// Extents still referenced by snapshots or clones survive until those
// release them. Live sessions on the destroyed store fail with
// ErrClosed; other tenants are unaffected.
func (p *Pool) Destroy(ctx context.Context, name string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p.mu.Lock()
	t, ok := p.tenants[name]
	if ok {
		delete(p.tenants, name)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("multimap: no tenant %q", name)
	}
	t.store.Close()
	t.store.vols[0].Close()
	for _, pv := range t.vols {
		pv.Free()
	}
	return nil
}

package multimap

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
	"repro/internal/shard"
)

// DiskModel names a simulated drive.
type DiskModel = disk.ModelName

// The built-in drive models. The first two are the paper's testbed.
const (
	AtlasTenKIII       DiskModel = "atlas10k3"
	CheetahThirtySixES DiskModel = "cheetah36es"
	SyntheticModern    DiskModel = "modern"
	SmallTestDisk      DiskModel = "smalltest"
	MediumTestDisk     DiskModel = "mediumtest"
)

// DiskModels lists the available drive model names.
func DiskModels() []string { return disk.ModelNames() }

// Mapping selects a data placement algorithm.
type Mapping = mapping.Kind

// The four placements the paper evaluates, plus the Gray-coded curve
// from related work.
const (
	Naive    = mapping.Naive
	ZOrder   = mapping.ZOrder
	Hilbert  = mapping.Hilbert
	Gray     = mapping.Gray
	MultiMap = mapping.MultiMap
)

// Mappings returns the four placements compared in the paper.
func Mappings() []Mapping { return mapping.Kinds() }

// ParseMapping converts a CLI-friendly name ("naive", "zorder",
// "hilbert", "gray", "multimap") to a Mapping.
func ParseMapping(s string) (Mapping, error) { return mapping.ParseKind(s) }

// Stats is the I/O summary of one query; see MsPerCell for the paper's
// headline metric.
type Stats = query.Stats

// ServiceTotals is the per-volume query service's own bookkeeping:
// admission batches served, how many merged concurrent queries, and the
// aggregate attributed Stats that every session's per-query Stats must
// sum to.
type ServiceTotals = engine.ServiceTotals

// QoSClass declares one admission class for the weighted-fair
// scheduler (see WithQoSClass / WithFairShare).
type QoSClass = engine.QoSClass

// ClassTotals is one QoS class's slice of the service bookkeeping —
// ops served, urgent-front promotions, deferral events, and the
// class's share of the attributed Stats (see Store.ClassTotals).
type ClassTotals = engine.ClassTotals

// Volume is a logical volume over one or more simulated drives,
// exporting the paper's adjacency interface.
//
// A volume is built with its query service and keeps it for life: a
// single service-loop goroutine (running only while queries are in
// flight) owns the member disks, so any number of stores and sessions
// may query the volume concurrently, and Reset is serialized through
// that loop. Close is terminal: it shuts the service, after which Open
// on the volume and every operation of its stores and sessions fail
// with ErrClosed.
type Volume struct {
	svc *engine.Service
}

// newVolume pairs lv with the query service that owns its head state —
// the one way a Volume is built, for the caller's volumes, a store's
// internal shard volumes and a pool's tenant volumes alike.
func newVolume(lv *lvm.Volume) *Volume {
	return &Volume{svc: engine.NewService(lv, engine.ServiceOptions{})}
}

// OpenVolume builds a volume from drive model names with the paper's
// adjacency depth D=128.
func OpenVolume(models ...DiskModel) (*Volume, error) {
	return OpenVolumeDepth(0, models...)
}

// OpenVolumeDepth builds a volume with an explicit adjacency depth
// (0 selects the paper's D=128).
func OpenVolumeDepth(adjDepth int, models ...DiskModel) (*Volume, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("multimap: at least one disk model required")
	}
	geoms := make([]*disk.Geometry, 0, len(models))
	for _, m := range models {
		g, err := disk.ModelByName(string(m))
		if err != nil {
			return nil, err
		}
		geoms = append(geoms, g)
	}
	v, err := lvm.New(adjDepth, geoms...)
	if err != nil {
		return nil, err
	}
	return newVolume(v), nil
}

// NumDisks returns the number of member drives.
func (v *Volume) NumDisks() int { return v.svc.Volume().NumDisks() }

// TotalBlocks returns the volume capacity in 512-byte blocks.
func (v *Volume) TotalBlocks() int64 { return v.svc.Volume().TotalBlocks() }

// AdjacencyDepth returns the exported D.
func (v *Volume) AdjacencyDepth() int { return v.svc.Volume().AdjacencyDepth() }

// GetAdjacent returns up to d adjacent blocks of a volume LBN — the
// first interface call of the paper's LVM (§3.2).
func (v *Volume) GetAdjacent(vlbn int64, d int) ([]int64, error) {
	return v.svc.Volume().GetAdjacent(vlbn, d)
}

// GetTrackBoundaries returns the half-open LBN interval of the track
// containing vlbn — the second interface call of the paper's LVM.
func (v *Volume) GetTrackBoundaries(vlbn int64) (start, next int64, err error) {
	return v.svc.Volume().GetTrackBoundaries(vlbn)
}

// Reset restores all drives to their initial head positions and clears
// statistics and the extent cache. The reset is serialized after every
// in-flight batch, so it is safe to call while other goroutines query
// the volume. On a closed volume Reset is a no-op: the drives keep the
// state the last batch left them in.
func (v *Volume) Reset() {
	_ = v.svc.Reset() // ErrClosed after Close: nothing is reset
}

// Close shuts the volume's query service for good, waiting for
// in-flight batches (and committing write-back buffers) so the caller
// regains exclusive use of the drives. Afterwards Open on the volume
// and every operation of its stores and sessions fail with ErrClosed,
// and Reset is a no-op. Close is idempotent, and optional: an idle
// service holds no goroutine.
func (v *Volume) Close() { v.svc.Close() }

// ServiceTotals snapshots the query service's bookkeeping.
func (v *Volume) ServiceTotals() ServiceTotals { return v.svc.Totals() }

// ErrClosed is returned by Open on a closed volume, and by store and
// session operations once a service they run on has been shut down —
// by Store.Close on the store's internally created shard volumes, or by
// Volume.Close on the caller's own volume. Both closes are terminal.
// Test with errors.Is.
var ErrClosed = engine.ErrClosed

// ErrNotUpdatable is returned by the update operations (Insert,
// Delete, LoadCell and the chain inspectors) on a store that was
// opened without the Updatable option.
var ErrNotUpdatable = errors.New("multimap: store opened without Updatable")

// Store is a mapped multidimensional dataset ready for queries — and,
// when opened with the Updatable option, online updates (§4.6). Its
// operation methods submit to the shard services through a default
// session and are safe to call from multiple goroutines; use Begin for
// per-client sessions with their own Stats attribution.
//
// Every blocking operation takes a context.Context first: cancel it or
// give it a deadline and the operation's queued work is dropped before
// admission (never charging simulated I/O for work not issued), the
// partial Stats of the work that WAS issued are returned alongside the
// context's error, and Stats.Cancelled/DeadlineExceeded count the
// dropped operations. Pair context.WithDeadline with the
// WithDeadlineAging open option to make deadlines a QoS signal the
// admission batcher honors.
//
// A store always executes through a shard group. The default single
// shard lives on the volume the store was built on, so nothing changes
// for unsharded use; with WithShards(n > 1) the dataset spans that
// volume plus internally created ones, every query fanning out to the
// shards it touches.
type Store struct {
	// vols holds one volume per shard: vols[0] is the one the store was
	// opened on, vols[1:] the store's own (WithShards, or a pool tenant's).
	vols        []*Volume
	grp         *shard.Group
	dims        []int
	maxInflight int
	qosClass    string            // default session's QoS class (WithQoS)
	cells       []*core.CellStore // one chain tracker per shard; nil unless Updatable
	cfg         config            // resolved open config (clone re-applies it)
	eo          query.ExecOptions
	def         *Session
	lat         *engine.LatencyRing // completed-query latency ring (Metrics)
	closed      atomic.Bool
	// autoGrow, when set (pool tenants under WithAutoGrow), adds
	// overflow capacity through the pool's Grow path; the update path
	// calls it once on core.ErrOverflowExhausted and retries.
	autoGrow func() error
}

// Open maps an N-dimensional grid dataset onto the volume using the
// given placement and returns the store, configured by functional
// options (WithPolicy, WithChunkCells, WithCache, WithMaxInflight,
// WithShards, WithBatchWindow, WithDeadlineAging, WithFairShare,
// WithQoSClass, WithQoS, WithWriteBack, WithDiskIdx, WithCellBlocks,
// Updatable). With WithShards(n > 1) the dataset is
// split along Dim0 across that many shard volumes (the given volume
// plus internally created clones of its hardware); with Updatable the
// store also serves Insert/Delete/LoadCell.
func Open(vol *Volume, kind Mapping, dims []int, opts ...Option) (*Store, error) {
	c := defaultConfig()
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("multimap: nil Option")
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	return open([]*Volume{vol}, kind, dims, c)
}

// open builds a store from a resolved config — the shared tail of Open
// and Pool.Create. Pool tenants arrive with every shard volume
// allocated from the pool; otherwise vols is the caller's one volume
// and shards 1..N-1 mirror its hardware via NewLike. On a closed volume
// configuring the service fails, so Open returns ErrClosed.
func open(vols []*Volume, kind Mapping, dims []int, c config) (*Store, error) {
	eo, err := query.ExecOptionsFor(c.policy, c.chunkCells)
	if err != nil {
		return nil, err
	}
	for len(vols) < c.shards {
		vols = append(vols, newVolume(lvm.NewLike(vols[0].svc.Volume())))
	}
	svcs := services(vols)
	grp, err := shard.Build(svcs, kind, dims, mapping.Options{
		DiskIdx: c.diskIdx, CellBlocks: c.cellBlocks,
	}, eo)
	if err != nil {
		return nil, err
	}
	if err := applyServiceConfig(svcs, c); err != nil {
		return nil, err
	}
	s := newStore(vols, grp, c, eo)
	if c.updatable {
		if err := s.initUpdatable(c.update); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newStore assembles a Store over a shard group built on the services
// of vols. It is the one place a Store's fields are filled in: open and
// Pool.Clone both go through it, so a field one of them needs cannot be
// forgotten by the other. The update layer (cells, autoGrow) is the
// caller's to attach.
func newStore(vols []*Volume, grp *shard.Group, c config, eo query.ExecOptions) *Store {
	s := &Store{
		vols:        vols,
		grp:         grp,
		dims:        append([]int(nil), grp.Router().Dims()...),
		maxInflight: c.maxInflight,
		qosClass:    c.qosClass,
		cfg:         c,
		eo:          eo,
		lat:         newLatencyRing(),
	}
	s.def = s.Begin()
	return s
}

// services lists the volumes' services, in shard order.
func services(vols []*Volume) []*engine.Service {
	svcs := make([]*engine.Service, len(vols))
	for i, v := range vols {
		svcs[i] = v.svc
	}
	return svcs
}

// applyServiceConfig overlays the config's service-level knobs (cache,
// admission window, deadline aging, write-back, fair sharing) onto
// every shard service — shared by open and the pool's clone path,
// which rebuilds services for cloned volumes under the parent's
// config.
func applyServiceConfig(svcs []*engine.Service, c config) error {
	for _, svc := range svcs {
		if err := svc.Apply(c.svc); err != nil {
			return err
		}
	}
	return nil
}

// Session is one client's handle for issuing operations concurrently
// with other sessions on the same shard volumes: the query operations
// (Beam, RangeQuery, FetchCell) on any store, plus the update
// operations (Insert, Delete, LoadCell) on a store opened with
// Updatable. Each service loop merges in-flight sessions' requests
// into shared disk batches and attributes costs back, so each
// operation's Stats remain its own; on a sharded store a query's Stats
// are the sum of its per-shard parts.
//
// Every operation takes a context first; see Store for the
// cancellation and partial-stats contract.
type Session struct {
	s  *Store
	ss *shard.Session
}

// Begin opens a new session on the store: one engine session per shard
// service, driven scatter-gather. Sessions are bound to the services
// the store was built on, which are its volumes' for life: after
// Store.Close or Volume.Close every operation fails with ErrClosed. The
// session inherits the store's default QoS class (WithQoS); use
// BeginQoS for an explicit class.
func (s *Store) Begin() *Session {
	return s.BeginQoS(s.qosClass)
}

// BeginQoS opens a new session declared in the given QoS class: every
// operation the session submits is queued, scheduled, cached, and
// accounted under it by the weighted-fair admission batcher (see
// WithFairShare / WithQoSClass). "" is the default class; with fair
// sharing off the class only labels the per-class accounting.
func (s *Store) BeginQoS(class string) *Session {
	return &Session{
		s:  s,
		ss: s.grp.Begin(engine.SessionOptions{MaxInflight: s.maxInflight, Class: class}),
	}
}

// check gates every session operation: a closed store fails fast with
// ErrClosed (instead of racing the retired service loop), and a nil
// context is treated as context.Background().
func (q *Session) check(ctx context.Context) (context.Context, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.s.closed.Load() {
		return ctx, ErrClosed
	}
	return ctx, nil
}

// checkMutate additionally refuses an already-done context before an
// update operation mutates any in-memory cell state, so a clean abort
// leaves nothing half-applied.
func (q *Session) checkMutate(ctx context.Context) (context.Context, error) {
	ctx, err := q.check(ctx)
	if err != nil {
		return ctx, err
	}
	return ctx, ctx.Err()
}

// Beam runs the paper's beam query through this session. On a sharded
// store a Dim0 beam fans out to every shard; beams along the other
// dimensions land on exactly one.
func (q *Session) Beam(ctx context.Context, dim int, fixed []int) (Stats, error) {
	ctx, err := q.check(ctx)
	if err != nil {
		return Stats{}, err
	}
	start := time.Now()
	st, err := q.ss.Beam(ctx, dim, fixed)
	if err == nil {
		q.s.recordQueryLatency(start)
	}
	return st, err
}

// RangeQuery fetches the box [lo, hi) through this session,
// scatter-gather across the shards the box touches. Cancelling ctx
// mid-query cancels every shard's remaining work and returns the
// partial Stats merged so far with ctx's error.
func (q *Session) RangeQuery(ctx context.Context, lo, hi []int) (Stats, error) {
	ctx, err := q.check(ctx)
	if err != nil {
		return Stats{}, err
	}
	start := time.Now()
	st, err := q.ss.Box(ctx, lo, hi)
	if err == nil {
		q.s.recordQueryLatency(start)
	}
	return st, err
}

// RangeChunk is one retired chunk of a streaming range query: the
// chunk's own Stats (cell units, like the query's final aggregate), the
// shard that served it, and its 0-based delivery sequence within the
// query.
type RangeChunk struct {
	Seq   int   `json:"seq"`
	Shard int   `json:"shard"`
	Stats Stats `json:"stats"`
}

// RangeQueryStream runs the box [lo, hi) like RangeQuery while
// streaming results chunk-by-chunk: as each plan chunk retires from the
// service, onChunk receives its RangeChunk — while later chunks are
// still being planned and served, so a consumer (the network daemon's
// wire streaming) ships partial results long before the query
// completes. onChunk is invoked from internal goroutines but never
// concurrently, in delivery order; it must not block longer than the
// consumer can afford, since the submitting goroutine waits on it
// between chunk retirements. Cancelled or expired work invokes nothing
// — the usual partial-Stats contract applies to the returned aggregate,
// which is identical to RangeQuery's. A nil onChunk degrades to
// RangeQuery exactly.
func (q *Session) RangeQueryStream(ctx context.Context, lo, hi []int, onChunk func(RangeChunk)) (Stats, error) {
	ctx, err := q.check(ctx)
	if err != nil {
		return Stats{}, err
	}
	start := time.Now()
	var hook func(int, engine.Stats)
	if onChunk != nil {
		seq := 0 // BoxStream serializes callbacks, so a plain counter is safe
		hook = func(shard int, st engine.Stats) {
			onChunk(RangeChunk{Seq: seq, Shard: shard, Stats: st})
			seq++
		}
	}
	st, err := q.ss.BoxStream(ctx, lo, hi, hook)
	if err == nil {
		q.s.recordQueryLatency(start)
	}
	return st, err
}

// Flush commits the write-back dirty buffers of every shard service
// this session's store uses (see WithWriteBack) and returns once every
// previously buffered write has paid its simulated I/O. A no-op
// without write-back or with nothing dirty. A ctx already cancelled or
// past its deadline aborts without flushing — the dirty data stays
// buffered and commits on a later trigger.
func (q *Session) Flush(ctx context.Context) error {
	ctx, err := q.check(ctx)
	if err != nil {
		return err
	}
	return q.ss.Flush(ctx)
}

// Close retires the session, flushing every shard's write-back buffer
// so no write acknowledged through this session is left uncommitted.
// The store and its services stay open for other sessions.
func (q *Session) Close(ctx context.Context) error {
	ctx, err := q.check(ctx)
	if err != nil {
		return err
	}
	return q.ss.Close(ctx)
}

// Stats returns the session's accumulated statistics across all its
// completed operations (summed over the shards it touched).
func (q *Session) Stats() Stats { return q.ss.Totals() }

// CellBlocks returns the store's cell size in blocks.
func (s *Store) CellBlocks() int { return s.grp.Member(0).Map.CellBlocks() }

// Mapping returns the store's placement algorithm.
func (s *Store) Mapping() Mapping { return s.grp.Member(0).Map.Kind() }

// Dims returns the dataset side lengths.
func (s *Store) Dims() []int { return s.dims }

// NumShards returns how many shard volumes the dataset spans (1 unless
// WithShards asked for more).
func (s *Store) NumShards() int { return s.grp.NumShards() }

// ShardOf returns the index of the shard owning a cell — the Dim0 slab
// its first coordinate falls in.
func (s *Store) ShardOf(cell []int) (int, error) { return s.grp.Router().ShardOf(cell) }

// CellLBN returns the volume LBN storing a cell — useful for building
// external indexes over the placement. On a sharded store the address
// is local to the owning shard's volume (see ShardOf); addresses from
// different shards live in different address spaces.
func (s *Store) CellLBN(cell []int) (int64, error) {
	_, vlbn, err := s.grp.CellVLBN(cell)
	return vlbn, err
}

// ClassTotals snapshots the per-QoS-class slice of the service
// bookkeeping, merged across every shard service and sorted by class
// name. Each class's Attributed is that class's share of the summed
// Metrics().Totals Attributed: the attribution-sum property per
// class, group wide (ElapsedMs aside — a shared batch's elapsed time
// is observed once per contributing class).
func (s *Store) ClassTotals() []ClassTotals { return s.grp.ClassTotals() }

// Close retires the store: subsequent operations on it and on its
// sessions fail with ErrClosed, and the shard volumes the store
// created internally (WithShards > 1) are closed, their services
// drained and shut down. The caller's own volume — shard 0 — stays
// open; close it separately via Volume.Close when desired (operations
// then fail with ErrClosed through the service layer instead). Close
// is idempotent.
func (s *Store) Close() {
	if s.closed.Swap(true) {
		return
	}
	// Commit any write-back dirty data on shard 0 before retiring: the
	// caller's volume outlives the store, and its service should not be
	// left holding this store's buffered writes. The internal shard
	// volumes flush on their own Close (the engine's fifth trigger).
	s.def.ss.Flush(context.Background())
	for _, v := range s.vols[1:] {
		v.Close()
	}
}

// Flush commits the write-back dirty buffers of every shard service
// (see WithWriteBack) through the store's default session; a no-op
// without write-back. See Session.Flush for the ctx contract.
func (s *Store) Flush(ctx context.Context) error {
	return s.def.Flush(ctx)
}

// Reset restores every shard volume of the store — the caller's and
// the internal ones — to pristine head state, clearing their caches
// and service totals. Like Volume.Reset it is safe under live traffic,
// serializing after in-flight batches on each shard, and a no-op on a
// closed volume.
func (s *Store) Reset() {
	for _, v := range s.vols {
		v.Reset()
	}
}

// Beam fetches all cells along dimension dim with the remaining
// coordinates fixed, and returns the simulated I/O statistics (§5.1).
// It runs through the store's default session; ctx carries
// cancellation and deadline.
func (s *Store) Beam(ctx context.Context, dim int, fixed []int) (Stats, error) {
	return s.def.Beam(ctx, dim, fixed)
}

// RangeQuery fetches the box [lo, hi) (hi exclusive per dimension)
// through the store's default session.
func (s *Store) RangeQuery(ctx context.Context, lo, hi []int) (Stats, error) {
	return s.def.RangeQuery(ctx, lo, hi)
}

// Model is the closed-form analytical cost model (§5) for one drive.
type Model struct {
	m    *analytic.Model
	spec *core.CubeSpec
	dims []int
}

// NewModel builds the analytic model for a drive model and dataset
// shape, using the same basic cube MultiMap would choose.
func NewModel(model DiskModel, dims []int) (*Model, error) {
	g, err := disk.ModelByName(string(model))
	if err != nil {
		return nil, err
	}
	v, err := lvm.New(0, g)
	if err != nil {
		return nil, err
	}
	mm, err := core.NewMapping(v, dims, core.MapOptions{DiskIdx: 0})
	if err != nil {
		return nil, err
	}
	return &Model{m: analytic.New(g), spec: mm.Spec(), dims: append([]int(nil), dims...)}, nil
}

// EstimateBeamMs predicts total beam-query I/O time for a mapping
// (Naive or MultiMap).
func (m *Model) EstimateBeamMs(kind Mapping, dim int) (float64, error) {
	switch kind {
	case Naive:
		return m.m.NaiveBeamMs(m.dims, dim)
	case MultiMap:
		return m.m.MultiMapBeamMs(m.spec, m.dims, dim)
	default:
		return 0, fmt.Errorf("multimap: analytic model covers Naive and MultiMap, not %v", kind)
	}
}

// EstimateRangeMs predicts total range-query I/O time for a box with
// q[i] cells per dimension.
func (m *Model) EstimateRangeMs(kind Mapping, q []int) (float64, error) {
	switch kind {
	case Naive:
		return m.m.NaiveRangeMs(m.dims, q)
	case MultiMap:
		return m.m.MultiMapRangeMs(m.spec, m.dims, q)
	default:
		return 0, fmt.Errorf("multimap: analytic model covers Naive and MultiMap, not %v", kind)
	}
}

// BasicCube returns the basic-cube side lengths the mapping chose
// (§4.2) for inspection.
func (m *Model) BasicCube() []int { return append([]int(nil), m.spec.K...) }

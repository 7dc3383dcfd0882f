package multimap

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

// growOnExhaustion is the auto-grow retry gate: true exactly when err
// is an overflow-pool exhaustion, the store has a pool auto-grow hook
// (a tenant under WithAutoGrow), and the grow succeeded — i.e. the
// failed update is worth retrying against the fresh capacity. Callers
// may loop (a bulk load can outsize a single growth increment); the
// loop still terminates on a genuinely full pool because the hook
// itself errors once the drive has no free extent left, which leaves
// the original exhaustion error to surface.
func (s *Store) growOnExhaustion(err error) bool {
	if s.autoGrow == nil || !errors.Is(err, core.ErrOverflowExhausted) {
		return false
	}
	return s.autoGrow() == nil
}

// This file is the update capability of the unified Store (§4.6),
// enabled by the Updatable open option: cells are loaded at a tunable
// fill factor, inserts that overflow a cell go to overflow pages, and
// underflowing chains are reorganized.
//
// Updates are first-class write operations on the owning shard's query
// service: every Insert/Delete/LoadCell routes its cell to the shard
// holding it, submits the blocks it dirties as a write op through that
// shard's member session, and the shard's service loop invalidates any
// cached extents over those blocks before the write's simulated I/O
// cost is charged. A later FetchCell therefore always pays the real
// (post-update) disk cost, with or without the extent cache, and the
// store is safe for concurrent sessions mixing updates with queries.
//
// Each shard keeps its own overflow page pool, carved round-robin from
// the tails of its volume's member disks, so overflow chains spread
// across every disk instead of piling onto disk 0.

// UpdateOptions tunes §4.6 behaviour; pass it to the Updatable open
// option. The fractional fields use pointers so an explicit zero
// survives: nil selects the default, while &0.0 (see Frac) means
// exactly zero.
type UpdateOptions struct {
	// PointsPerBlock is the cell capacity in points (rows). 0 selects
	// the default 64.
	PointsPerBlock int
	// FillFactor reserves insert headroom at load time. nil selects the
	// default 0.75; explicit values must lie in (0,1].
	FillFactor *float64
	// ReclaimBelow triggers reorganization when a chain's occupancy
	// drops under it. nil selects the default 0.25; Frac(0) disables
	// reclamation entirely; explicit values must lie in [0,1).
	ReclaimBelow *float64
	// OverflowBlocks reserves this many blocks for overflow pages per
	// shard, spread round-robin across the tails of the shard volume's
	// member disks. 0 selects the default 1/8 of the shard's dataset
	// size. No per-disk extent may collide with the cells mapped onto
	// that disk; Open validates this.
	OverflowBlocks int64
}

// Frac returns a pointer to v for UpdateOptions' optional fractional
// fields, letting an explicit zero be distinguished from "unset".
func Frac(v float64) *float64 { return &v }

func (o UpdateOptions) withDefaults(datasetBlocks int64) (UpdateOptions, error) {
	if o.PointsPerBlock < 0 {
		return o, fmt.Errorf("multimap: PointsPerBlock %d must be non-negative", o.PointsPerBlock)
	}
	if o.PointsPerBlock == 0 {
		o.PointsPerBlock = 64
	}
	if o.FillFactor == nil {
		o.FillFactor = Frac(0.75)
	} else if f := *o.FillFactor; f <= 0 || f > 1 {
		return o, fmt.Errorf("multimap: FillFactor %v outside (0,1]", f)
	}
	if o.ReclaimBelow == nil {
		o.ReclaimBelow = Frac(0.25)
	} else if r := *o.ReclaimBelow; r < 0 || r >= 1 {
		return o, fmt.Errorf("multimap: ReclaimBelow %v outside [0,1)", r)
	}
	if o.OverflowBlocks < 0 {
		return o, fmt.Errorf("multimap: OverflowBlocks %d must be non-negative", o.OverflowBlocks)
	}
	if o.OverflowBlocks == 0 {
		o.OverflowBlocks = datasetBlocks/8 + 1
	}
	return o, nil
}

// overflowExtents carves one tail extent per member disk of a shard's
// volume, splitting total as evenly as possible, and validates each
// extent against the cells the mapping placed on that disk (the
// per-disk refinement of the SpanVLBN collision check — under a
// declustered dataset the global span straddles every disk and would
// falsely reject any tail extent).
func overflowExtents(vol *lvm.Volume, m mapping.Mapper, total int64) ([]lvm.Request, error) {
	nd := int64(vol.NumDisks())
	per, rem := total/nd, total%nd
	var out []lvm.Request
	for d := 0; d < int(nd); d++ {
		q := per
		if int64(d) < rem {
			q++
		}
		if q == 0 {
			continue
		}
		end := vol.DiskStart(d) + vol.DiskBlocks(d)
		start := end - q
		if start < vol.DiskStart(d) {
			return nil, fmt.Errorf("multimap: overflow extent [%d,+%d) larger than disk %d", start, q, d)
		}
		lo, hi := m.SpanOnDisk(d)
		if lo < hi && lo < end && hi > start {
			return nil, fmt.Errorf(
				"multimap: overflow extent [%d,%d) collides with dataset cells [%d,%d) on disk %d; shrink OverflowBlocks (%d)",
				start, end, lo, hi, d, total)
		}
		out = append(out, lvm.Request{VLBN: start, Count: int(q)})
	}
	return out, nil
}

// initUpdatable attaches update bookkeeping to a freshly built store
// (the Updatable open option). Every shard gets its own overflow pool
// carved from the tails of its volume's member disks; it fails if any
// per-disk extent would overlap the cells mapped onto that disk.
func (s *Store) initUpdatable(opts UpdateOptions) error {
	s.cells = make([]*core.CellStore, s.NumShards())
	for si := 0; si < s.NumShards(); si++ {
		member := s.grp.Member(si)
		blocks := int64(1)
		for _, d := range s.grp.Router().LocalDims(si) {
			blocks *= int64(d)
		}
		o, err := opts.withDefaults(blocks)
		if err != nil {
			return err
		}
		extents, err := overflowExtents(member.Svc.Volume(), member.Map, o.OverflowBlocks)
		if err != nil {
			if si > 0 {
				err = fmt.Errorf("shard %d: %w", si, err)
			}
			return err
		}
		s.cells[si], err = core.NewCellStore(member.Map.CellVLBN, o.PointsPerBlock,
			*o.FillFactor, *o.ReclaimBelow, extents)
		if err != nil {
			return err
		}
	}
	return nil
}

// Updatable reports whether the store was opened with the Updatable
// option, i.e. whether its sessions serve Insert/Delete/LoadCell.
func (s *Store) Updatable() bool { return s.cells != nil }

// route resolves a global cell to its owning shard: the shard index,
// the shard-local coordinates, and the shard's chain tracker. It fails
// with ErrNotUpdatable on a store opened without Updatable.
func (s *Store) route(cell []int) (si int, local []int, cs *core.CellStore, err error) {
	if s.cells == nil {
		return 0, nil, nil, ErrNotUpdatable
	}
	si, err = s.grp.Router().ShardOf(cell)
	if err != nil {
		return 0, nil, nil, err
	}
	return si, s.grp.Router().Localize(si, cell), s.cells[si], nil
}

// Points returns a cell's live point count.
func (s *Store) Points(cell []int) (int, error) {
	_, local, cs, err := s.route(cell)
	if err != nil {
		return 0, err
	}
	return cs.Points(local)
}

// ChainLen returns the number of blocks backing a cell (1 = no
// overflow).
func (s *Store) ChainLen(cell []int) (int, error) {
	_, local, cs, err := s.route(cell)
	if err != nil {
		return 0, err
	}
	return cs.ChainLen(local)
}

// Reorganizations counts chain compactions so far, across all shards
// (0 on a store opened without Updatable).
func (s *Store) Reorganizations() int {
	n := 0
	for _, cs := range s.cells {
		n += cs.Reorganizations()
	}
	return n
}

// LoadCell bulk-loads n points into a cell at the configured fill
// factor through the store's default session, returning the write-path
// Stats (blocks written in Stats.Writes). Even when the load fails
// partway (overflow pool exhausted), the blocks it already dirtied are
// still submitted as a write op, so their cached extents are
// invalidated before the error is reported.
func (s *Store) LoadCell(ctx context.Context, cell []int, n int) (Stats, error) {
	return s.def.LoadCell(ctx, cell, n)
}

// Insert adds one point to a cell through the default session,
// overflowing if the home block is full.
func (s *Store) Insert(ctx context.Context, cell []int) (Stats, error) {
	return s.def.Insert(ctx, cell)
}

// Delete removes one point from a cell through the default session,
// reorganizing underflowing chains.
func (s *Store) Delete(ctx context.Context, cell []int) (Stats, error) {
	return s.def.Delete(ctx, cell)
}

// FetchCell reads a cell including its overflow chain through the
// default session and returns the simulated I/O statistics — the §4.6
// cost of an overflowed cell.
func (s *Store) FetchCell(ctx context.Context, cell []int) (Stats, error) {
	return s.def.FetchCell(ctx, cell)
}

// LoadCell bulk-loads n points into a cell through this session and
// returns the write-path Stats (blocks written in Stats.Writes). Even
// when the load fails partway (overflow pool exhausted), the blocks it
// already dirtied are still submitted as a write op, so their cached
// extents are invalidated before the error is reported.
func (q *Session) LoadCell(ctx context.Context, cell []int, n int) (Stats, error) {
	ctx, err := q.checkMutate(ctx)
	if err != nil {
		return Stats{}, err
	}
	si, local, cs, err := q.s.route(cell)
	if err != nil {
		return Stats{}, err
	}
	var before int
	if q.s.autoGrow != nil {
		before, _ = cs.Points(local)
	}
	reqs, err := cs.LoadCell(local, n)
	for err != nil && q.s.growOnExhaustion(err) {
		// Each grow hands fresh overflow extents to every shard's pool;
		// the retry resumes where the failed load stopped (the partial
		// load kept its points, so only the remainder is loaded) and the
		// dirtied extents of every round go out as one write. A load
		// larger than one growth increment just loops; a full drive
		// stops the loop through the failing grow hook.
		now, _ := cs.Points(local)
		var more []lvm.Request
		more, err = cs.LoadCell(local, n-(now-before))
		reqs = append(reqs, more...)
	}
	if len(reqs) > 0 {
		st, werr := q.write(ctx, si, reqs)
		if err == nil && werr == nil {
			return st, nil
		}
		if err == nil {
			err = werr
		}
	}
	return Stats{}, err
}

// Insert adds one point to a cell, overflowing if the home block is
// full, and returns the write-path Stats.
func (q *Session) Insert(ctx context.Context, cell []int) (Stats, error) {
	ctx, err := q.checkMutate(ctx)
	if err != nil {
		return Stats{}, err
	}
	si, local, cs, err := q.s.route(cell)
	if err != nil {
		return Stats{}, err
	}
	reqs, err := cs.Insert(local)
	for err != nil && q.s.growOnExhaustion(err) {
		// A failed Insert mutated nothing, so the retry is the whole op.
		reqs, err = cs.Insert(local)
	}
	if err != nil {
		return Stats{}, err
	}
	return q.write(ctx, si, reqs)
}

// Delete removes one point from a cell, reorganizing underflowing
// chains, and returns the write-path Stats (a reorganization rewrites
// the whole chain, which shows in Stats.Writes).
func (q *Session) Delete(ctx context.Context, cell []int) (Stats, error) {
	ctx, err := q.checkMutate(ctx)
	if err != nil {
		return Stats{}, err
	}
	si, local, cs, err := q.s.route(cell)
	if err != nil {
		return Stats{}, err
	}
	reqs, err := cs.Delete(local)
	if err != nil {
		return Stats{}, err
	}
	return q.write(ctx, si, reqs)
}

// FetchCell reads one cell from the owning shard and returns the
// simulated I/O statistics. On an updatable store the read covers the
// cell's whole overflow chain (the §4.6 cost of an overflowed cell);
// on a read-only store it is the cell's home extent.
func (q *Session) FetchCell(ctx context.Context, cell []int) (Stats, error) {
	ctx, err := q.check(ctx)
	if err != nil {
		return Stats{}, err
	}
	var si int
	var reqs []lvm.Request
	if q.s.cells != nil {
		var local []int
		var cs *core.CellStore
		si, local, cs, err = q.s.route(cell)
		if err != nil {
			return Stats{}, err
		}
		reqs, err = cs.ReadRequests(local)
		if err != nil {
			return Stats{}, err
		}
	} else {
		var vlbn int64
		si, vlbn, err = q.s.grp.CellVLBN(cell)
		if err != nil {
			return Stats{}, err
		}
		reqs = []lvm.Request{{VLBN: vlbn, Count: q.s.CellBlocks()}}
	}
	start := time.Now()
	st, err := q.ss.Member(si).RunPlan(ctx,
		engine.Static(reqs, query.PolicyFor(q.s.Mapping() == MultiMap)), engine.Options{})
	if err == nil {
		q.s.recordQueryLatency(start)
	}
	return st, err
}

// write submits one mutation's dirtied extents as a write op on the
// owning shard's member session. The cell store coalesces dirty blocks
// by plain VLBN adjacency; the service's write path splits any extent
// that crosses a disk-segment boundary (possible when an overflow
// extent ends exactly at one disk's tail), so nothing more is needed
// here.
func (q *Session) write(ctx context.Context, si int, reqs []lvm.Request) (Stats, error) {
	return q.ss.Member(si).Write(ctx, reqs, query.PolicyFor(q.s.Mapping() == MultiMap))
}

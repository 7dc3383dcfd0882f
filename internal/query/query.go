// Package query implements the database storage manager of the paper's
// prototype (§5.1-5.2): it translates beam and range queries over a
// mapped dataset into disk requests, applying each mapping's preferred
// issue strategy, and executes them through the shared engine.
//
// Every mapping expands a query box into its blocks' ascending,
// coalesced extents itself (mapping.Mapper.BoxRequests) — Naive and
// MultiMap from the box's Dim0 rows, the curves from a walk of the
// curve's hierarchy — without a lookup per cell. The layout also
// decides which gaps to read through: MultiMap bridges the small gaps
// its edge cubes leave on a track and reports those blocks as padding.
// The storage manager adds only the issue policy (PolicyFor):
//
//   - Linear mappings (Naive, Z-order, Hilbert, Gray): issue the extents
//     in ascending LBN order — "an easy optimization ... that
//     significantly improves performance in practice".
//   - MultiMap: favour sequential over semi-sequential access. Its
//     extents are the Dim0 runs (a Dim0 beam is contiguous sequential
//     runs), issued all at once, so the disk's internal (SPTF)
//     scheduler fetches the steps along the other dimensions on the
//     semi-sequential path.
//
// The planner streams: a query box is sliced along its slowest
// dimension into sub-boxes of at most ChunkCells cells, each planned
// with the strategy above and yielded to the session running it as its
// own chunk, so a huge range never materializes every block at once.
// The default (ChunkCells 0) plans each query as a single chunk, which
// preserves the global sort the issue optimization depends on.
package query

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
)

// Stats summarizes the I/O work of one query; it is the engine's
// aggregate, re-exported for API stability.
type Stats = engine.Stats

// ExecOptions tunes an executor beyond its defaults.
type ExecOptions struct {
	// ChunkCells bounds how many cells the planner expands per chunk; 0
	// plans each query as one chunk. Chunking bounds planner memory on
	// huge ranges at the cost of sorting per chunk instead of globally.
	ChunkCells int64
}

// ExecOptionsFor returns the ExecOptions for a planner chunk bound. It
// exists only for bench/, which a PR outside it may not edit and which
// still passes an empty policy name first; every other caller builds
// ExecOptions itself. A non-empty policy is refused: the issue policy
// belongs to the layout (PolicyFor). The [benchmark] PR that stops
// passing the name deletes it.
func ExecOptionsFor(policy string, chunkCells int64) (ExecOptions, error) {
	if policy != "" {
		return ExecOptions{}, fmt.Errorf("query: the issue policy %q cannot be set; each layout has its own", policy)
	}
	if chunkCells < 0 {
		return ExecOptions{}, fmt.Errorf("query: chunk cells must be non-negative")
	}
	return ExecOptions{ChunkCells: chunkCells}, nil
}

// Executor runs queries for one mapped dataset.
type Executor struct {
	vol  *lvm.Volume
	m    mapping.Mapper
	opts ExecOptions
}

// NewExecutor builds an executor over a mapper and its volume with
// default options.
func NewExecutor(vol *lvm.Volume, m mapping.Mapper) *Executor {
	return NewExecutorOptions(vol, m, ExecOptions{})
}

// NewExecutorOptions builds an executor with explicit options.
func NewExecutorOptions(vol *lvm.Volume, m mapping.Mapper, opts ExecOptions) *Executor {
	return &Executor{vol: vol, m: m, opts: opts}
}

// Beam fetches every cell along dimension dim, the other coordinates
// held at fixed (fixed[dim] is ignored). This is the paper's beam
// query: a 1-D query parallel to an axis (§5.1).
func (e *Executor) Beam(dim int, fixed []int) (Stats, error) {
	return e.BeamOn(context.Background(), engine.OnVolume(e.vol), dim, fixed)
}

// BeamBox translates the paper's beam query — all cells along dim with
// the remaining coordinates fixed — into the equivalent box [lo, hi)
// over a dataset of the given side lengths. The public Session shares
// it with BeamOn, so beams route identically on one volume and on many.
func BeamBox(dims []int, dim int, fixed []int) (lo, hi []int, err error) {
	if dim < 0 || dim >= len(dims) {
		return nil, nil, fmt.Errorf("query: beam dimension %d out of range", dim)
	}
	if len(fixed) != len(dims) {
		return nil, nil, fmt.Errorf("query: fixed has %d dims, want %d", len(fixed), len(dims))
	}
	n := len(dims)
	buf := make([]int, 2*n)
	lo, hi = buf[:n:n], buf[n:]
	copy(lo, fixed)
	copy(hi, fixed)
	lo[dim] = 0
	hi[dim] = dims[dim]
	for i := range hi {
		if i != dim {
			hi[i] = fixed[i] + 1
		}
	}
	return lo, hi, nil
}

// BeamOn runs a beam query through an explicit engine runner — a
// Session of a shared service, or the lone engine.OnVolume session Beam
// uses. The context carries cancellation and deadline down to the
// engine's admission batches.
func (e *Executor) BeamOn(ctx context.Context, r engine.Runner, dim int, fixed []int) (Stats, error) {
	lo, hi, err := BeamBox(e.m.Dims(), dim, fixed)
	if err != nil {
		return Stats{}, err
	}
	return e.RangeOn(ctx, r, lo, hi)
}

// Range fetches the box [lo, hi) (hi exclusive in every dimension).
func (e *Executor) Range(lo, hi []int) (Stats, error) {
	return e.RangeOn(context.Background(), engine.OnVolume(e.vol), lo, hi)
}

// RangeOn runs a range query through an explicit engine runner. The
// planner streams chunks to the runner; a Session runner pipelines them
// (chunk N+1 is planned while chunk N is on the disks) and may batch
// them with other sessions' in-flight queries. The planner's chunk loop
// observes ctx: cancellation stops planning between chunks, drops the
// query's queued chunks before admission, and returns the partial
// Stats of the work actually issued (in cell units, with the full-fetch
// verification skipped) alongside ctx's error.
func (e *Executor) RangeOn(ctx context.Context, r engine.Runner, lo, hi []int) (Stats, error) {
	return e.RangeStreamOn(ctx, r, lo, hi, nil)
}

// RangeStreamOn is RangeOn with chunk-by-chunk result streaming: onChunk
// becomes the runner's engine.Options.OnChunk, so as each of the plan's
// chunks retires it receives that chunk's own Stats, in cell units like
// the total, while later chunks are still being planned and served. A
// nil onChunk streams nothing.
func (e *Executor) RangeStreamOn(ctx context.Context, r engine.Runner, lo, hi []int, onChunk func(Stats)) (Stats, error) {
	cells, err := e.checkBox(lo, hi)
	if err != nil {
		return Stats{}, err
	}
	st, runErr := r.RunPlan(ctx, e.newBoxPlan(lo, hi), engine.Options{OnChunk: onChunk})
	if runErr != nil {
		// Speculative partial result: when the context died mid-plan but
		// some cells were already aggregated, hand them back flagged
		// Partial instead of discarding them with the error — the caller
		// decides whether a partial aggregate is usable.
		if st.Cells > 0 && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded)) {
			st.Partial = true
		}
		return st, runErr
	}
	if st.Cells != cells {
		return st, fmt.Errorf("query: fetched %d useful cells, want %d", st.Cells, cells)
	}
	return st, nil
}

// CheckBox validates a box [lo, hi) against a dataset shape and
// returns its cell count — the storage manager's own validation,
// exported so the scatter-gather shard layer rejects exactly the boxes
// the single-volume path would (instead of the router silently
// clamping an out-of-range Dim0 bound).
func CheckBox(dims, lo, hi []int) (int64, error) {
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return 0, fmt.Errorf("query: bounds arity mismatch")
	}
	cells := int64(1)
	for i := range dims {
		if lo[i] < 0 || hi[i] > dims[i] || lo[i] >= hi[i] {
			return 0, fmt.Errorf("query: bad range [%d,%d) on dim %d (length %d)",
				lo[i], hi[i], i, dims[i])
		}
		cells *= int64(hi[i] - lo[i])
	}
	return cells, nil
}

// checkBox validates the box and returns its cell count.
func (e *Executor) checkBox(lo, hi []int) (int64, error) {
	return CheckBox(e.m.Dims(), lo, hi)
}

// Plan returns the streaming request plan for the box [lo, hi): the
// box is sliced along its slowest dimension into sub-boxes of at most
// ChunkCells cells (one chunk when ChunkCells is 0), each planned with
// the mapping's issue strategy.
func (e *Executor) Plan(lo, hi []int) (engine.Plan, error) {
	if _, err := e.checkBox(lo, hi); err != nil {
		return nil, err
	}
	return e.newBoxPlan(lo, hi), nil
}

// newBoxPlan builds the streaming plan for an already-validated box.
func (e *Executor) newBoxPlan(lo, hi []int) engine.Plan {
	// Copy the bounds: the plan is drained lazily, after the caller may
	// have reused its buffers for the next box. One buffer holds them
	// and the bounds of the chunk being planned — the plan's own array
	// up to planDims dimensions, so the plan is one allocation.
	n := len(lo)
	p := &boxPlan{e: e}
	buf := p.bounds[:]
	if n > planDims {
		buf = make([]int, 4*n)
	}
	p.lo, p.hi, p.clo, p.chi = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:4*n]
	copy(p.lo, lo)
	copy(p.hi, hi)
	p.next = lo[n-1]
	return p
}

// planDims is the most dimensions a plan holds its bounds for inline.
const planDims = 4

// boxPlan streams a box query as sub-box chunks.
type boxPlan struct {
	e        *Executor
	lo, hi   []int
	clo, chi []int // the current chunk's bounds, rewritten by each Next
	next     int   // next unplanned slice of the slowest dimension
	bounds   [4 * planDims]int
}

func (p *boxPlan) Next() (engine.Chunk, bool, error) {
	last := len(p.lo) - 1
	if p.next >= p.hi[last] {
		return engine.Chunk{}, false, nil
	}
	end := p.hi[last]
	if limit := p.e.opts.ChunkCells; limit > 0 {
		perSlice := int64(1)
		for i := 0; i < last; i++ {
			perSlice *= int64(p.hi[i] - p.lo[i])
		}
		slices := int(limit / perSlice)
		if slices < 1 {
			slices = 1
		}
		if e := p.next + slices; e < end {
			end = e
		}
	}
	copy(p.clo, p.lo)
	copy(p.chi, p.hi)
	p.clo[last], p.chi[last] = p.next, end
	p.next = end
	reqs, policy, padding, err := p.e.planBox(p.clo, p.chi)
	if err != nil {
		return engine.Chunk{}, false, err
	}
	return engine.Chunk{Reqs: reqs, Policy: policy, Padding: padding}, true, nil
}

// PolicyFor returns the issue policy of a layout (§5.2): MultiMap
// leaves the order of its semi-sequential requests to the disk's
// internal scheduler (SPTF); the linear layouts pre-sort and go FIFO.
// It is the one place a layout's policy is decided.
func PolicyFor(kind mapping.Kind) disk.SchedPolicy {
	if kind == mapping.MultiMap {
		return disk.SchedSPTF
	}
	return disk.SchedFIFO
}

// planBox translates one sub-box into requests, the issue policy, and
// the number of padding blocks the request set reads beyond the box:
// the layout's requests and padding, and the layout's policy.
func (e *Executor) planBox(lo, hi []int) ([]lvm.Request, disk.SchedPolicy, int64, error) {
	reqs, padding, err := e.m.BoxRequests(lo, hi)
	if err != nil {
		return nil, 0, 0, err
	}
	return reqs, PolicyFor(e.m.Kind()), padding, nil
}

package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/mapping"
	"repro/internal/query"
	"repro/internal/sfc"
)

// Member is one shard's full execution stack: the engine.Service loop
// that owns an independent volume's head state and extent cache (the
// volume is Svc.Volume()), the shard-local mapping of the slab's grid,
// and the storage-manager planner over it.
type Member struct {
	Svc  *engine.Service
	Map  mapping.Mapper
	Exec *query.Executor
}

// Group is a sharded dataset: a Router plus one Member per slab. Build
// it once, then open scatter-gather Sessions for each client.
type Group struct {
	r       *Router
	members []Member
}

// Build maps a dataset of the given shape across one service's volume
// per shard, choosing the Dim0 slab alignment from the placement
// (MultiMap's basic-cube side K0; 1 for the linear mappings) and
// mapping each shard's slab grid onto its own volume with the same
// placement options and executor options throughout. With one
// volume the group degenerates to exactly the single-volume stack —
// same mapping, same planner, same service — which is what makes
// single-shard scatter-gather execution bit-identical to the unsharded
// path.
func Build(svcs []*engine.Service, kind mapping.Kind, dims []int,
	mo mapping.Options, eo query.ExecOptions) (*Group, error) {
	if len(svcs) == 0 {
		return nil, fmt.Errorf("shard: at least one service required")
	}
	// The global grid's cell count is checked before the cube choice or
	// the router sizes anything by it: it must not overflow and must fit
	// the shard volumes together, one block a cell.
	cells, err := sfc.NumCells(dims)
	if err != nil {
		return nil, err
	}
	var blocks int64
	for _, svc := range svcs {
		blocks += svc.Volume().TotalBlocks()
	}
	if cells > blocks {
		return nil, fmt.Errorf("shard: %d cells do not fit the %d blocks of %d shard volumes", cells, blocks, len(svcs))
	}
	align, err := mapping.Dim0Align(kind, svcs[0].Volume(), dims, mo)
	if err != nil {
		return nil, err
	}
	// Slabs align to the global basic-cube grid when it has at least one
	// cube row per shard. A short Dim0 (or a cube side chosen near the
	// whole dimension) can leave fewer cube rows than shards; then the
	// alignment relaxes by halving until every shard owns a slab — each
	// shard maps its slab with its own basic cube anyway, so the
	// per-shard sequential and semi-sequential locality is unaffected,
	// only the slab cuts stop coinciding with the unsharded layout's
	// cube boundaries.
	for align > 1 && (dims[0]+align-1)/align < len(svcs) {
		align = (align + 1) / 2
	}
	r, err := NewRouter(dims, len(svcs), align)
	if err != nil {
		return nil, err
	}
	g := &Group{r: r, members: make([]Member, len(svcs))}
	for i, svc := range svcs {
		m, err := mapping.New(kind, svc.Volume(), r.LocalDims(i), mo)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		g.members[i] = member(svc, m, eo)
	}
	return g, nil
}

// member assembles one shard's stack over svc's volume.
func member(svc *engine.Service, m mapping.Mapper, eo query.ExecOptions) Member {
	return Member{Svc: svc, Map: m, Exec: query.NewExecutorOptions(svc.Volume(), m, eo)}
}

// Rebind builds a new Group over fresh services (and their volumes) while
// sharing the source group's router and per-shard mappings — the clone
// hook: a cloned dataset's volumes carry bit-for-bit the parent's
// blocks at snapshot time, so the parent's cell placement is exactly
// the clone's. Re-deriving the mappings from the clone volumes could
// drift (mapping.New chooses the basic-cube side from volume geometry,
// and a pool clone's segment layout equals the parent's only at
// snapshot), so the Mapper objects are shared outright — they are
// immutable after construction. Only the executors are rebuilt, bound
// to the new volumes.
func Rebind(g *Group, svcs []*engine.Service, eo query.ExecOptions) (*Group, error) {
	if len(svcs) != len(g.members) {
		return nil, fmt.Errorf("shard: rebind needs %d services, got %d", len(g.members), len(svcs))
	}
	ng := &Group{r: g.r, members: make([]Member, len(svcs))}
	for i, svc := range svcs {
		ng.members[i] = member(svc, g.members[i].Map, eo)
	}
	return ng, nil
}

// Router returns the group's partition.
func (g *Group) Router() *Router { return g.r }

// NumShards returns the number of members.
func (g *Group) NumShards() int { return len(g.members) }

// Member returns shard i's execution stack.
func (g *Group) Member(i int) *Member { return &g.members[i] }

// CellVLBN routes a global cell to its owning shard and returns that
// shard's index with the shard-local volume LBN storing the cell.
func (g *Group) CellVLBN(cell []int) (shard int, vlbn int64, err error) {
	si, err := g.r.ShardOf(cell)
	if err != nil {
		return 0, 0, err
	}
	local := g.r.Localize(si, cell)
	vlbn, err = g.members[si].Map.CellVLBN(local.Cell)
	local.Release()
	return si, vlbn, err
}

// ServiceTotals snapshots every shard service's bookkeeping, in shard
// order. Summing each session's Totals over all of a group's sessions
// reproduces the sum of these entries' Attributed fields — the
// attribution-sum property, now group-wide.
func (g *Group) ServiceTotals() []engine.ServiceTotals {
	out := make([]engine.ServiceTotals, len(g.members))
	for i := range g.members {
		out[i] = g.members[i].Svc.Totals()
	}
	return out
}

// QueueDepths snapshots every member service's admission backlog (ops
// queued awaiting admission), in shard order — the daemon metrics
// feed's queue-depth gauge.
func (g *Group) QueueDepths() []int {
	out := make([]int, len(g.members))
	for i := range g.members {
		out[i] = g.members[i].Svc.QueueDepth()
	}
	return out
}

// ClassTotals merges every shard service's per-QoS-class bookkeeping
// deterministically: classes are summed by name across shards (in
// shard order) and returned sorted by class name, exactly the order
// engine.Service.ClassTotals uses — so the group-wide view is
// reproducible whatever order the shards served their batches in.
// Each class's Attributed sums the shards' per-class shares; the
// attribution-sum property therefore holds group-wide per class, with
// the same ElapsedMs caveat as the engine-level ClassTotals.
func (g *Group) ClassTotals() []engine.ClassTotals {
	byName := make(map[string]*engine.ClassTotals)
	var names []string
	for i := range g.members {
		for _, ct := range g.members[i].Svc.ClassTotals() {
			agg := byName[ct.Class]
			if agg == nil {
				agg = &engine.ClassTotals{Class: ct.Class}
				byName[ct.Class] = agg
				names = append(names, ct.Class)
			}
			agg.Accumulate(ct)
		}
	}
	sort.Strings(names)
	out := make([]engine.ClassTotals, len(names))
	for i, name := range names {
		out[i] = *byName[name]
	}
	return out
}

// Begin opens a scatter-gather session: one engine session per shard
// service, driven concurrently by each query that spans shards.
func (g *Group) Begin(opts engine.SessionOptions) *Session {
	s := &Session{g: g, es: make([]*engine.Session, len(g.members))}
	for i := range g.members {
		s.es[i] = g.members[i].Svc.NewSession(opts)
	}
	return s
}

// Session is one client's scatter-gather handle on a sharded dataset.
// Each query box is split by the router into per-shard sub-boxes; every
// sub-box is planned by its shard's own streaming planner and submitted
// through that shard's engine session, all shards in flight at once
// (shards scale across CPUs, not just across a batch); the per-shard
// Stats are then merged by summation in shard order.
//
// Merge contract: every merged field — costs, cells, padding, cache
// hits and misses, writes, invalidations, and ElapsedMs — is the sum of
// the per-shard parts, so session totals keep satisfying the
// attribution-sum property against the per-shard ServiceTotals.
// Summed ElapsedMs is therefore per-shard simulated wall-clock time
// stacked up, not the host wall-clock of the scatter (which is roughly
// the maximum over the shards).
//
// A Session is safe for concurrent use; queries from many goroutines
// interleave exactly as they would on the member engine sessions.
type Session struct {
	g  *Group
	es []*engine.Session
}

// Member returns the engine-level session bound to shard i, for
// operations that target one shard directly: the update layer routes a
// cell mutation's write ops and chain fetches through the owning
// shard's member session.
func (s *Session) Member(i int) *engine.Session { return s.es[i] }

// Flush commits every member service's write-back dirty buffer, in
// shard order. A shard whose flush fails does not strand the others:
// the remaining shards are still flushed, and the first error is
// returned. A no-op on services without write-back. Returns
// engine.ErrClosed (test with errors.Is) for shards whose service has
// been closed.
func (s *Session) Flush(ctx context.Context) error {
	var first error
	for _, es := range s.es {
		if err := es.Flush(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close retires the scatter-gather session: every shard's write-back
// buffer is flushed so no write acknowledged through this session is
// left uncommitted. The member services themselves stay open — they
// are owned by the Group and shared with other sessions.
func (s *Session) Close(ctx context.Context) error {
	return s.Flush(ctx)
}

// Totals returns the session's accumulated statistics across all its
// queries on every shard, summed in shard order.
func (s *Session) Totals() engine.Stats {
	var sum engine.Stats
	for _, es := range s.es {
		sum.Accumulate(es.Totals())
	}
	return sum
}

// Chunk is one served chunk of a streamed box query: its 0-based
// delivery sequence within the query, the shard that served it, and the
// chunk's own Stats (cell units, like the query's total). The json tags
// are the daemon's wire format.
type Chunk struct {
	Seq   int          `json:"seq"`
	Shard int          `json:"shard"`
	Stats engine.Stats `json:"stats"`
}

// delivery numbers and tags the chunks of one streamed query. The parts
// of a scatter deliver through it under one mutex, so the consumer never
// sees two chunks at once and Seq counts them in delivery order.
type delivery struct {
	mu      sync.Mutex
	seq     int
	onChunk func(Chunk)
}

// deliver hands the consumer the next chunk, served by shard.
func (d *delivery) deliver(shard int, st engine.Stats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onChunk(Chunk{Seq: d.seq, Shard: shard, Stats: st})
	d.seq++
}

// partResult is what one part of a scatter returned.
type partResult struct {
	stats engine.Stats
	err   error
}

// scratch is one query's working memory in the shard layer: the box's
// split, one result per part, the chunk delivery, and one delivery hook
// and one scatter func per part. It comes from scratchPool and goes
// back only after every part of its query has returned. The hooks and
// funcs are built once per scratch, when it first holds that many
// parts, and read the query they serve from the scratch's fields, so a
// warm query builds no closure. A cell op borrows one for the cell's
// local coordinates (Localize).
type scratch struct {
	boxSplit
	res   []partResult
	out   delivery
	hooks []func(engine.Stats)
	runs  []func()
	cell  []int

	// The query in flight.
	s      *Session
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch drops what sc holds of the query it served and returns it
// to the pool.
func putScratch(sc *scratch) {
	clear(sc.res)
	sc.out.onChunk = nil
	sc.s, sc.ctx, sc.cancel = nil, nil, nil
	scratchPool.Put(sc)
}

// start readies sc for a query of session s over its split's parts,
// streamed to onChunk when it is non-nil.
func (sc *scratch) start(s *Session, onChunk func(Chunk)) {
	n := len(sc.parts)
	for k := len(sc.hooks); k < n; k++ {
		sc.hooks = append(sc.hooks, func(st engine.Stats) { sc.out.deliver(sc.parts[k].Shard, st) })
		sc.runs = append(sc.runs, func() {
			defer sc.wg.Done()
			sc.serve(k)
		})
	}
	if cap(sc.res) < n {
		sc.res = make([]partResult, n)
	}
	sc.res = sc.res[:n]
	sc.s = s
	sc.out.seq, sc.out.onChunk = 0, onChunk
}

// serve runs part k on its shard under sc.ctx; a failure cancels the
// sibling parts.
func (sc *scratch) serve(k int) {
	p, r := sc.parts[k], &sc.res[k]
	var hook func(engine.Stats)
	if sc.out.onChunk != nil {
		hook = sc.hooks[k]
	}
	r.stats, r.err = sc.s.g.members[p.Shard].Exec.RangeStreamOn(sc.ctx, sc.s.es[p.Shard], p.Lo, p.Hi, hook)
	if r.err != nil && sc.cancel != nil {
		sc.cancel() // first failure stops the sibling shards promptly
	}
}

// Box fetches the global box [lo, hi) (hi exclusive per dimension)
// scatter-gather: sub-boxes run on their shards concurrently and the
// per-shard Stats merge by summation. A beam is the box query.BeamBox
// builds. An unstreamed box inside shard 0's slab runs on member 0
// with the caller's bounds, unsplit — with one shard that is every
// unstreamed box, the path that stays bit-identical to the unsharded
// executor. Any other box is split into scratch taken from a pool and
// returned once every part has returned, so a warm query allocates
// only its parts' plans (and the scatter's context). A scatter serves
// its last part on the calling goroutine and starts one goroutine for
// each other part.
//
// A non-nil onChunk streams the query: as each per-shard plan chunk
// retires, onChunk receives it numbered and tagged with its shard. It is
// never invoked concurrently; across the parts of a scatter the chunks
// arrive in the actual service order, so a wire client watches the
// scatter progress live. Dropped chunks report nothing, and the
// returned total is the same with or without onChunk.
//
// Cancellation propagates across the scatter: the per-shard plans run
// under a context derived from ctx, and the first part to fail —
// including a part whose shard dropped its chunks on ctx's own
// cancellation — cancels every sibling shard's remaining work
// (errgroup-style), so no shard keeps issuing simulated I/O for a
// query that cannot complete. Partial Stats merge deterministically:
// every part's partial result accumulates in part order (the router's
// slab order), whatever order the shards actually stopped in, and the
// returned error prefers the first real failure over the sibling
// cancellations it induced.
func (s *Session) Box(ctx context.Context, lo, hi []int, onChunk func(Chunk)) (engine.Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// The same validation the single-volume storage manager applies —
	// the router would otherwise silently clamp an out-of-range Dim0
	// bound. Each part's executor re-validates its sub-box; that double
	// check is accepted, costing O(#dims) next to the query itself.
	if _, err := query.CheckBox(s.g.r.dims, lo, hi); err != nil {
		return engine.Stats{}, err
	}
	if onChunk == nil && hi[0] <= s.g.r.cuts[1] {
		// cuts[0] == 0: the caller's bounds are shard 0's local ones.
		return s.g.members[0].Exec.RangeStreamOn(ctx, s.es[0], lo, hi, nil)
	}
	sc := getScratch()
	defer putScratch(sc)
	s.g.r.split(&sc.boxSplit, lo, hi)
	sc.start(s, onChunk)
	if len(sc.parts) == 1 {
		sc.ctx = ctx
		sc.serve(0)
		return sc.res[0].stats, sc.res[0].err
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sc.ctx, sc.cancel = sctx, cancel
	last := len(sc.parts) - 1
	sc.wg.Add(last)
	for k := 0; k < last; k++ {
		go sc.runs[k]()
	}
	sc.serve(last)
	sc.wg.Wait()
	// Merge in part order — deterministic whatever the shard scheduling
	// was — and pick the reported error the same way: the first part
	// with any error, upgraded to the first part with a non-context
	// error when one exists (so a real failure is not masked by the
	// Canceled it propagated to its siblings). When the caller's own
	// ctx is done, that error wins: it is the query's true cause.
	var merged engine.Stats
	var first error
	for _, r := range sc.res {
		merged.Accumulate(r.stats)
		if r.err != nil && first == nil {
			first = r.err
		}
	}
	for _, r := range sc.res {
		if e := r.err; e != nil && !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) {
			first = e
			break
		}
	}
	if first != nil {
		if err := ctx.Err(); err != nil {
			first = err
		}
		return merged, first
	}
	return merged, nil
}

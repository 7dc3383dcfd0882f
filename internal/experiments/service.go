package experiments

// Service-throughput experiment: the concurrent serving mode beyond the
// paper. N client sessions issue mixed beam/range queries — and, with
// cfg.WriteFraction > 0, §4.6 point inserts submitted as service write
// ops — against one MultiMap dataset at once; each per-volume service
// loop merges its in-flight chunks into shared SPTF batches, the
// optional extent cache absorbs overlapping reads, and every write
// invalidates the cached extents it dirties. With cfg.Shards > 1 the
// dataset is split along Dim0 across several shard volumes, each with
// its own service loop, and every client runs a scatter-gather session
// over them — the shard-scaling rows show queries/sec at 1, 2, 4, ...
// shards, the first workload where the simulator's speedup comes from
// true CPU parallelism rather than batching. The table reports
// aggregate throughput (queries/sec), cache hit rate, and per-query
// ms/cell alongside the services' batching and invalidation evidence —
// run it with rising -writes fractions to watch the hit rate fall as
// writes churn the cache.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/shard"
)

// ServeResult holds the throughput runs per configured disk, keyed by
// drive name, one entry per shard count.
type ServeResult map[string][]ServeRun

// ServeRun summarizes one service-throughput run (one drive model, one
// shard count).
type ServeRun struct {
	Shards        int
	Clients       int
	Queries       int     // total completed queries (writes included)
	WallSeconds   float64 // host wall-clock time
	QueriesPerSec float64
	MsPerCell     float64 // aggregate simulated ms per cell
	MeanQueryMs   float64 // mean simulated TotalMs per query
	HitRate       float64 // cache hits / (hits + misses); 0 with cache off
	BlocksWritten int64
	// Totals folds the shard services' own totals (PerShard) the way
	// Store.Metrics does: counters summed, MaxBatchChunks the largest
	// admission batch on any shard.
	Totals     engine.ServiceTotals
	PerSession []engine.Stats         // lifetime stats of each client session
	PerShard   []engine.ServiceTotals // each shard service's own totals
	// The deadline (QoS) session — client 0 when cfg.Deadline > 0:
	// how many of its queries completed inside the deadline vs.
	// expired, and the mean simulated elapsed ms it observed per
	// completed query (the p-latency the QoS admission improves).
	DLCompleted int
	DLExpired   int
	DLMeanMs    float64
}

// shardCounts returns the scaling ladder 1, 2, 4, ... capped at max,
// always ending on max itself.
func shardCounts(max int) []int {
	if max <= 1 {
		return []int{1}
	}
	var out []int
	for n := 1; n < max; n *= 2 {
		out = append(out, n)
	}
	return append(out, max)
}

// ServiceThroughput drives cfg.Clients concurrent sessions per
// configured drive, each issuing cfg.Queries mixed beam/range queries
// over the synthetic 3-D dataset, through one scatter-gather session
// per client with cfg.CacheBlocks of extent cache per shard; a
// cfg.WriteFraction share of each client's operations are update
// bursts on the hot region. With cfg.Shards > 1 the run repeats at
// 1, 2, 4, ... shards so the scaling is visible side by side. Queries
// are seeded per client, so a run is reproducible in workload (though
// not in interleaving).
func ServiceThroughput(cfg Config) (*Table, ServeResult, error) {
	cfg = cfg.Defaults()
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.Queries == 0 {
		cfg.Queries = 32
	}
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	dims := synthChunkDims(cfg.Scale)
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return nil, nil, err
	}
	res := ServeResult{}
	wbMode := "off"
	if cfg.WriteBack {
		wbMode = "on"
	}
	t := &Table{
		ID: "serve",
		Title: fmt.Sprintf("Concurrent query service, %v cells, cache %d blocks, write fraction %.2f, write-back %s",
			dims, cfg.CacheBlocks, cfg.WriteFraction, wbMode),
		Header: []string{"disk", "shards", "clients", "queries", "q/s", "ms/cell", "ms/query",
			"hit rate", "max batch", "merged", "issued reqs", "writes", "inval blk",
			"flushes", "coalesced", "cancel", "expired", "dl ms/q"},
	}
	for _, g := range disks {
		for _, shards := range shardCounts(cfg.Shards) {
			run, err := serveOneDisk(cfg, g, grid, dims, shards)
			if err != nil {
				return nil, nil, err
			}
			res[g.Name] = append(res[g.Name], run)
			dl := "-"
			if cfg.Deadline > 0 {
				dl = fmt.Sprintf("%.1f", run.DLMeanMs)
			}
			t.Rows = append(t.Rows, []string{
				g.Name, fmt.Sprint(run.Shards), fmt.Sprint(run.Clients), fmt.Sprint(run.Queries),
				fmt.Sprintf("%.1f", run.QueriesPerSec), f3(run.MsPerCell),
				fmt.Sprintf("%.1f", run.MeanQueryMs), fmt.Sprintf("%.2f", run.HitRate),
				fmt.Sprint(run.Totals.MaxBatchChunks), fmt.Sprint(run.Totals.MergedBatches),
				fmt.Sprint(run.Totals.IssuedRequests), fmt.Sprint(run.BlocksWritten),
				fmt.Sprint(run.Totals.InvalidatedBlocks),
				fmt.Sprint(run.Totals.FlushBatches), fmt.Sprint(run.Totals.CoalescedWrites),
				fmt.Sprint(run.Totals.Cancelled), fmt.Sprint(run.Totals.DeadlineExceeded), dl,
			})
		}
	}
	return t, res, nil
}

// serveRig is the shared concurrent-service testbed: per-shard volumes
// and service loops over one drive model, the scatter-gather group, and
// (when the workload writes) a per-shard update layer. Both the serve
// scaling ladder and the burst-traffic harness run on it.
type serveRig struct {
	grp   *shard.Group
	cells []*core.CellStore // nil when the workload is read-only
	svcs  []*engine.Service
}

func (r *serveRig) close() {
	for _, svc := range r.svcs {
		svc.Close()
	}
}

// buildServeRig assembles the rig for one drive model at one shard
// count: every shard is an independent volume over that model with its
// own service loop, write-back enabled when the config asks for it.
func buildServeRig(cfg Config, g *disk.Geometry, dims []int, shards int) (*serveRig, error) {
	eo, err := cfg.execOptions()
	if err != nil {
		return nil, err
	}
	rig := &serveRig{
		svcs: make([]*engine.Service, shards),
	}
	for i := range rig.svcs {
		v, err := lvm.New(0, g)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.svcs[i] = engine.NewService(v, engine.ServiceOptions{
			CacheBlocks: cfg.CacheBlocks, BatchWindow: cfg.BatchWindow,
			DeadlineAging: cfg.DeadlineAging,
			FairQuantum:   cfg.FairQuantum,
			Classes:       cfg.QoSClasses,
			WriteBack: engine.WriteBackOptions{
				Enabled:         cfg.WriteBack,
				WatermarkBlocks: cfg.WBWatermark,
				FlushInterval:   cfg.WBInterval,
			},
		})
	}
	rig.grp, err = shard.Build(rig.svcs, mapping.MultiMap, dims, mapping.Options{DiskIdx: 0}, eo)
	if err != nil {
		rig.close()
		return nil, err
	}

	// The update layer for the write share: per shard, overflow pages
	// live past the mapped span, clear of every cell (the same invariant
	// the public store's Updatable option validates per disk).
	if cfg.WriteFraction > 0 {
		rig.cells = make([]*core.CellStore, shards)
		for i := range rig.cells {
			member := rig.grp.Member(i)
			_, hi := member.Map.SpanVLBN()
			total := member.Svc.Volume().TotalBlocks()
			overflow := total - hi
			if overflow <= 0 {
				rig.close()
				return nil, fmt.Errorf("experiments: no room for an overflow extent past VLBN %d", hi)
			}
			if overflow > 1<<16 {
				overflow = 1 << 16
			}
			rig.cells[i], err = core.NewCellStore(member.Map.CellVLBN, 64, 0.75, 0.25,
				[]lvm.Request{{VLBN: total - overflow, Count: int(overflow)}})
			if err != nil {
				rig.close()
				return nil, err
			}
		}
	}
	return rig, nil
}

// serveOneDisk runs the concurrent workload against one drive model at
// one shard count on a fresh rig.
func serveOneDisk(cfg Config, g *disk.Geometry, grid *dataset.Grid, dims []int, shards int) (ServeRun, error) {
	rig, err := buildServeRig(cfg, g, dims, shards)
	if err != nil {
		return ServeRun{}, err
	}
	defer rig.close()
	grp, cells := rig.grp, rig.cells

	// MaxInflight 2 keeps each session one chunk ahead of the disks, so
	// with a chunked planner (cfg.ChunkCells) admission batches merge
	// even when the host serializes the client goroutines.
	sessions := make([]*shard.Session, cfg.Clients)
	for i := range sessions {
		sessions[i] = grp.Begin(engine.SessionOptions{MaxInflight: 2})
	}
	errs := make([]error, cfg.Clients)
	var dlCompleted, dlExpired int
	var dlElapsedMs float64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			// Client 0 is the QoS session when a deadline is configured:
			// each of its queries runs under context.WithTimeout, expiry
			// is counted rather than fatal, and its observed per-query
			// elapsed time is reported separately.
			qos := i == 0 && cfg.Deadline > 0
			for q := 0; q < cfg.Queries; q++ {
				if qos {
					ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
					st, err := runMixedQuery(ctx, sessions[i], grid, dims, rng)
					cancel()
					switch {
					case err == nil:
						dlCompleted++
						dlElapsedMs += st.ElapsedMs
					case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
						dlExpired++
					default:
						errs[i] = fmt.Errorf("client %d query %d: %w", i, q, err)
						return
					}
					continue
				}
				var err error
				if cells != nil && rng.Float64() < cfg.WriteFraction {
					_, err = runInsertBurst(context.Background(), grp, cells, sessions[i], dims, rng)
				} else {
					_, err = runMixedQuery(context.Background(), sessions[i], grid, dims, rng)
				}
				if err != nil {
					errs[i] = fmt.Errorf("client %d query %d: %w", i, q, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ServeRun{}, err
		}
	}
	// Drain the write-back buffers before the books close, so deferred
	// group-commit costs land in the session totals the table reports
	// (the flush is free with write-back off or nothing dirty).
	if err := sessions[0].Flush(context.Background()); err != nil {
		return ServeRun{}, err
	}
	wall := time.Since(start).Seconds()

	run := ServeRun{
		Shards:      shards,
		Clients:     cfg.Clients,
		Queries:     cfg.Clients * cfg.Queries,
		WallSeconds: wall,
		PerShard:    grp.ServiceTotals(),
		DLCompleted: dlCompleted,
		DLExpired:   dlExpired,
	}
	if dlCompleted > 0 {
		run.DLMeanMs = dlElapsedMs / float64(dlCompleted)
	}
	var sum engine.Stats
	for _, s := range sessions {
		st := s.Totals()
		run.PerSession = append(run.PerSession, st)
		sum.Accumulate(st)
	}
	if wall > 0 {
		run.QueriesPerSec = float64(run.Queries) / wall
	}
	run.MsPerCell = sum.MsPerCell()
	if run.Queries > 0 {
		run.MeanQueryMs = sum.TotalMs / float64(run.Queries)
	}
	if lookups := sum.CacheHits + sum.CacheMisses; lookups > 0 {
		run.HitRate = float64(sum.CacheHits) / float64(lookups)
	}
	for _, tot := range run.PerShard {
		run.Totals.Accumulate(tot)
	}
	run.BlocksWritten = sum.Writes
	return run, nil
}

// runInsertBurst performs one update operation: a burst of point
// inserts into a cell on a hot-region alignment grid, each routed to
// the owning shard and submitted as a service write op there, so that
// shard's loop invalidates any cached extents over the dirtied blocks
// before charging the write. The Dim0 hot slots are laid out per shard
// slab — every shard gets write traffic, so the scaling ladder's write
// and invalidation columns measure all of them; with one shard the
// slab is the whole dimension and the workload reduces exactly to the
// unsharded hot region (the same region the hot range queries keep
// re-reading).
func runInsertBurst(ctx context.Context, grp *shard.Group, cells []*core.CellStore, sess *shard.Session, dims []int, rng *rand.Rand) (engine.Stats, error) {
	cell := make([]int, len(dims))
	for i, d := range dims {
		side := max(1, d/16)
		slots := max(1, d/8/side)
		cell[i] = rng.Intn(slots) * side
	}
	si := 0
	if n := grp.NumShards(); n > 1 {
		si = rng.Intn(n)
		lo, hi := grp.Router().Slab(si)
		side := max(1, (hi-lo)/16)
		slots := max(1, (hi-lo)/8/side)
		cell[0] = lo + rng.Intn(slots)*side
	}
	local := grp.Router().Localize(si, cell)
	var sum engine.Stats
	for k := 0; k < 8; k++ {
		reqs, err := cells[si].Insert(local)
		if err != nil {
			return sum, err
		}
		st, err := sess.Member(si).Write(ctx, reqs, disk.SchedSPTF)
		if err != nil {
			return sum, err
		}
		sum.Accumulate(st)
	}
	return sum, nil
}

// runMixedQuery issues one query through the client's scatter-gather
// session: half uniform beams, a quarter uniform small range boxes, and
// a quarter hot-region range boxes on a quantized grid — the
// overlapping share of a real workload, which is what the extent cache
// absorbs.
func runMixedQuery(ctx context.Context, sess *shard.Session, grid *dataset.Grid, dims []int, rng *rand.Rand) (engine.Stats, error) {
	switch roll := rng.Intn(4); {
	case roll < 2:
		dim := rng.Intn(len(dims))
		fixed, err := grid.RandomBeam(rng, dim)
		if err != nil {
			return engine.Stats{}, err
		}
		return sess.Beam(ctx, dim, fixed)
	case roll == 2:
		lo := make([]int, len(dims))
		hi := make([]int, len(dims))
		for i, d := range dims {
			side := 1 + rng.Intn(max(1, d/8))
			lo[i] = rng.Intn(d - side + 1)
			hi[i] = lo[i] + side
		}
		return sess.Box(ctx, lo, hi)
	default:
		// Hot region: boxes of a fixed side on a coarse alignment grid
		// inside the first eighth of every dimension, so concurrent
		// clients keep re-reading (and cache-hitting) the same extents.
		lo := make([]int, len(dims))
		hi := make([]int, len(dims))
		for i, d := range dims {
			side := max(1, d/16)
			slots := max(1, d/8/side)
			lo[i] = rng.Intn(slots) * side
			hi[i] = min(lo[i]+side, d)
		}
		return sess.Box(ctx, lo, hi)
	}
}

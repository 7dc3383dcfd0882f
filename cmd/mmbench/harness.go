package main

// The serving harnesses: serve, burst and tenants measure the stack
// beyond the paper's §5 — sessions, cross-query coalescing, the extent
// cache, write-back, deadline and weighted-fair admission, sharding and
// the tenant pool. Each builds its stack the way a user does, through
// the public API: OpenVolume and Open with options (or OpenPool), then
// one session per client.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	multimap "repro"
	"repro/internal/disk"
	"repro/internal/engine"
)

// serveConfig scopes a serving harness: the paper's config (drives,
// scale, seed, policy, chunk) plus one field per serving flag.
type serveConfig struct {
	multimap.ExperimentConfig
	// Clients and Queries are the concurrent sessions and the ops each
	// issues; 0 takes the harness's default.
	Clients int
	Queries int
	// CacheBlocks sizes each shard's extent cache (0 = off).
	CacheBlocks int64
	// WriteFraction in [0,1) is the share of serve's ops that are insert
	// bursts, and of burst's clients that are writers.
	WriteFraction float64
	// Shards tops serve's scaling ladder (1, 2, 4, ... Shards) and is
	// burst's shard count; 0 means one.
	Shards int
	// Deadline, when positive, runs each of serve's client-0 queries
	// under that timeout: the QoS session.
	Deadline time.Duration
	// The rest are the open options of the same names: WithBatchWindow,
	// WithDeadlineAging, WithWriteBack, and WithFairShare with the
	// WithQoSClass registry (a quantum of 0 keeps fair sharing off).
	BatchWindow   time.Duration
	DeadlineAging time.Duration
	WriteBack     bool
	WBWatermark   int64
	WBInterval    time.Duration
	FairQuantum   int64
	QoSClasses    []multimap.QoSClass
}

// validate checks the serving fields' ranges, then the paper config's
// through its own validator.
func (c serveConfig) validate() error {
	if c.Clients < 0 || c.Queries < 0 || c.CacheBlocks < 0 || c.Shards < 0 || c.FairQuantum < 0 {
		return errors.New("clients, queries, cache blocks, shards and the fair-share quantum must be non-negative")
	}
	if c.WriteFraction < 0 || c.WriteFraction >= 1 {
		return fmt.Errorf("write fraction %v outside [0,1)", c.WriteFraction)
	}
	if c.BatchWindow < 0 || c.Deadline < 0 || c.DeadlineAging < 0 || c.WBWatermark < 0 || c.WBInterval < 0 {
		return errors.New("window, deadline, aging and the write-back watermark and interval must be non-negative")
	}
	return c.ExperimentConfig.Defaults().Validate()
}

// resolve fills the paper config's defaults and the harness's client
// and query counts, then validates.
func (c serveConfig) resolve(clients, queries int) (serveConfig, error) {
	c.ExperimentConfig = c.ExperimentConfig.Defaults()
	if c.Clients == 0 {
		c.Clients = clients
	}
	if c.Queries == 0 {
		c.Queries = queries
	}
	return c, c.validate()
}

// open builds the harness's MultiMap store over a fresh volume of the
// drive model and returns it with the function that closes both.
func (c serveConfig) open(model multimap.DiskModel, dims []int, shards int) (*multimap.Store, func(), error) {
	vol, err := multimap.OpenVolume(model)
	if err != nil {
		return nil, nil, err
	}
	opts := []multimap.Option{
		multimap.WithPolicy(c.Policy), multimap.WithChunkCells(c.ChunkCells),
		multimap.WithShards(shards), multimap.WithCache(c.CacheBlocks),
		multimap.WithBatchWindow(c.BatchWindow), multimap.WithDeadlineAging(c.DeadlineAging),
		// Two chunks in flight keep a session one chunk ahead of the
		// disks, so a chunked query shares admission batches even when
		// the host serializes the clients.
		multimap.WithMaxInflight(2),
	}
	if c.WriteBack {
		opts = append(opts, multimap.WithWriteBack(c.WBWatermark, c.WBInterval))
	}
	opts = append(opts, c.qosOptions()...)
	if c.WriteFraction > 0 {
		// One 64 Ki-block overflow extent at the tail of each shard's
		// drive; points per block, fill and reclaim keep their defaults.
		opts = append(opts, multimap.Updatable(multimap.UpdateOptions{OverflowBlocks: 1 << 16}))
	}
	s, err := multimap.Open(vol, multimap.MultiMap, dims, opts...)
	if err != nil {
		vol.Close()
		return nil, nil, err
	}
	return s, func() { s.Close(); vol.Close() }, nil
}

// qosOptions registers the QoS classes under weighted-fair admission
// at a positive quantum, and is empty at 0: WithFairShare(0) would
// select the default quantum, not keep fair sharing off.
func (c serveConfig) qosOptions() []multimap.Option {
	if c.FairQuantum <= 0 {
		return nil
	}
	var opts []multimap.Option
	for _, cl := range c.QoSClasses {
		opts = append(opts, multimap.WithQoSClass(cl.Name, cl.Weight, cl.Urgent))
	}
	return append(opts, multimap.WithFairShare(c.FairQuantum))
}

// gridDims is the synthetic 3-D dataset at a scale: 259³ at 1 (§5.3),
// never under 16 a side.
func gridDims(scale float64) []int {
	side := max(16, int(259*scale))
	return []int{side, side, side}
}

// driveName is a drive model's display name, the tables' disk column.
// The config's validator has already resolved every model.
func driveName(m multimap.DiskModel) string {
	g, _ := disk.ModelByName(string(m))
	return g.Name
}

// dim0Slabs recovers each shard's Dim0 slab [lo, hi) by scanning
// ShardOf along Dim0: slabs are contiguous and in shard order.
func dim0Slabs(s *multimap.Store) [][2]int {
	slabs := make([][2]int, s.NumShards())
	cell := make([]int, len(s.Dims()))
	for x := 0; x < s.Dims()[0]; x++ {
		cell[0] = x
		si, _ := s.ShardOf(cell) // x is inside Dim0
		if slabs[si][1] == 0 {
			slabs[si][0] = x
		}
		slabs[si][1] = x + 1
	}
	return slabs
}

// onOff and qosMode render the titles' mode words.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func qosMode(quantum int64) string {
	if quantum > 0 {
		return fmt.Sprintf("quantum %d", quantum)
	}
	return "off"
}

// client is one closed-loop client of a harness: its QoS class and
// session, a seeded random stream, and what its ops cost — each op's
// host latency and their simulated ms.
type client struct {
	class  string
	sess   *multimap.Session
	rng    *rand.Rand
	hostMs []float64
	simMs  float64
}

// newClients begins one session on s per class name; client i's random
// stream is seeded seed + 7919·i.
func newClients(s *multimap.Store, seed int64, classes ...string) []*client {
	cs := make([]*client, len(classes))
	for i, class := range classes {
		cs[i] = &client{class: class, sess: s.BeginQoS(class), rng: rand.New(rand.NewSource(seed + int64(i)*7919))}
	}
	return cs
}

// drive runs each client on its own goroutine, issuing op(c, i, q) for
// q = 0, 1, ... back to back and timing each op: n ops per client, or,
// when n is 0, at least one and then until stop is closed. It returns
// once every client has stopped, with the first error.
func drive(clients []*client, n int, stop <-chan struct{}, op func(c *client, i, q int) (multimap.Stats, error)) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for q := 0; n == 0 || q < n; q++ {
				if n == 0 && q > 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
				t0 := time.Now()
				st, err := op(c, i, q)
				if err != nil {
					errs[i] = fmt.Errorf("client %d op %d: %w", i, q, err)
					return
				}
				c.hostMs = append(c.hostMs, float64(time.Since(t0))/float64(time.Millisecond))
				c.simMs += st.TotalMs
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// latencies pools the sorted host latencies and the simulated ms of the
// clients in class ("" for all of them), and counts those clients.
func latencies(clients []*client, class string) (ms []float64, simMs float64, n int) {
	for _, c := range clients {
		if class == "" || c.class == class {
			ms = append(ms, c.hostMs...)
			simMs += c.simMs
			n++
		}
	}
	sort.Float64s(ms)
	return ms, simMs, n
}

// hotSlot draws a coordinate on the hot region's grid along a side of
// d cells: slots max(1, d/16) wide inside the first eighth.
func hotSlot(rng *rand.Rand, d int) int {
	side := max(1, d/16)
	return rng.Intn(max(1, d/8/side)) * side
}

// mixedQuery issues one read of the serve mix: half uniform beams, a
// quarter small uniform boxes and a quarter hot-region boxes — the
// overlapping share of a real workload, which the extent cache absorbs.
func mixedQuery(ctx context.Context, sess *multimap.Session, dims []int, rng *rand.Rand) (multimap.Stats, error) {
	roll := rng.Intn(4)
	if roll < 2 {
		dim := rng.Intn(len(dims))
		fixed := make([]int, len(dims))
		for i, d := range dims {
			if i != dim {
				fixed[i] = rng.Intn(d)
			}
		}
		return sess.Beam(ctx, dim, fixed)
	}
	lo := make([]int, len(dims))
	hi := make([]int, len(dims))
	for i, d := range dims {
		if roll == 2 {
			side := 1 + rng.Intn(max(1, d/8))
			lo[i] = rng.Intn(d - side + 1)
			hi[i] = lo[i] + side
		} else {
			lo[i] = hotSlot(rng, d)
			hi[i] = min(lo[i]+max(1, d/16), d)
		}
	}
	return sess.RangeQuery(ctx, lo, hi)
}

// bulkScan issues one large uniform box, a quarter of every side — the
// burst bulk class's op.
func bulkScan(ctx context.Context, sess *multimap.Session, dims []int, rng *rand.Rand) (multimap.Stats, error) {
	lo := make([]int, len(dims))
	hi := make([]int, len(dims))
	for i, d := range dims {
		side := min(max(2, d/4), d)
		lo[i] = rng.Intn(d - side + 1)
		hi[i] = lo[i] + side
	}
	return sess.RangeQuery(ctx, lo, hi)
}

// insertBurst is one update op: eight point inserts into a cell on the
// hot region's grid. With several shards the Dim0 slot is drawn inside
// a random shard's slab, so every shard takes write traffic; with one,
// the slab is all of Dim0 and the cell lies in the hot read region.
func insertBurst(ctx context.Context, sess *multimap.Session, dims []int, slabs [][2]int, rng *rand.Rand) (multimap.Stats, error) {
	cell := make([]int, len(dims))
	for i, d := range dims {
		cell[i] = hotSlot(rng, d)
	}
	if len(slabs) > 1 {
		slab := slabs[rng.Intn(len(slabs))]
		cell[0] = slab[0] + hotSlot(rng, slab[1]-slab[0])
	}
	var sum multimap.Stats
	for k := 0; k < 8; k++ {
		st, err := sess.Insert(ctx, cell)
		if err != nil {
			return sum, err
		}
		sum.Accumulate(st)
	}
	return sum, nil
}

// serveRun is one rung of serve's ladder: one drive at one shard count.
type serveRun struct {
	Disk     string
	Shards   int
	Queries  int              // ops completed, writes included
	Wall     float64          // host seconds
	Sessions []multimap.Stats // each client session's lifetime Stats
	Sum      multimap.Stats   // their sum
	Metrics  multimap.Metrics // the store's totals, per shard and summed
	// DLMs is the mean simulated elapsed ms of the queries client 0
	// completed under a deadline.
	DLMs float64
}

// serve is the concurrent serving benchmark (-exp serve): per
// configured drive, cfg.Clients sessions each issue cfg.Queries ops of
// the mixed workload against one store, a cfg.WriteFraction share of
// them insert bursts; with cfg.Shards > 1 the run repeats at 1, 2, 4,
// ... shards. Ops are seeded per client, so a run is reproducible in
// its workload — and, with one client, in every simulated number.
func serve(cfg serveConfig) (*multimap.ExperimentTable, []serveRun, error) {
	cfg, err := cfg.resolve(4, 32)
	if err != nil {
		return nil, nil, err
	}
	dims := gridDims(cfg.Scale)
	t := &multimap.ExperimentTable{
		ID: "serve",
		Title: fmt.Sprintf("Concurrent query service, %v cells, cache %d blocks, write fraction %.2f, write-back %s",
			dims, cfg.CacheBlocks, cfg.WriteFraction, onOff(cfg.WriteBack)),
		Header: []string{"disk", "shards", "clients", "queries", "q/s", "ms/cell", "ms/query",
			"hit rate", "max batch", "merged", "issued reqs", "writes", "inval blk",
			"flushes", "coalesced", "cancel", "expired", "dl ms/q"},
	}
	var runs []serveRun
	for _, model := range cfg.Disks {
		// The ladder: 1, 2, 4, ... shards, ending on cfg.Shards itself.
		for shards := 1; ; shards = min(2*shards, cfg.Shards) {
			run, err := serveRung(cfg, model, dims, shards)
			if err != nil {
				return nil, nil, err
			}
			runs = append(runs, run)
			tot := run.Metrics.Totals
			dl := "-"
			if cfg.Deadline > 0 {
				dl = fmt.Sprintf("%.1f", run.DLMs)
			}
			t.Rows = append(t.Rows, []string{
				run.Disk, fmt.Sprint(shards), fmt.Sprint(cfg.Clients), fmt.Sprint(run.Queries),
				fmt.Sprintf("%.1f", float64(run.Queries)/run.Wall), fmt.Sprintf("%.3f", run.Sum.MsPerCell()),
				fmt.Sprintf("%.1f", run.Sum.TotalMs/float64(run.Queries)), fmt.Sprintf("%.2f", run.Metrics.CacheHitRate),
				fmt.Sprint(tot.MaxBatchChunks), fmt.Sprint(tot.MergedBatches), fmt.Sprint(tot.IssuedRequests),
				fmt.Sprint(run.Sum.Writes), fmt.Sprint(tot.InvalidatedBlocks), fmt.Sprint(tot.FlushBatches),
				fmt.Sprint(tot.CoalescedWrites), fmt.Sprint(tot.Cancelled), fmt.Sprint(tot.DeadlineExceeded), dl,
			})
			if shards >= cfg.Shards {
				break
			}
		}
	}
	return t, runs, nil
}

// serveRung runs serve's workload on a fresh store at one shard count.
func serveRung(cfg serveConfig, model multimap.DiskModel, dims []int, shards int) (serveRun, error) {
	s, closeStore, err := cfg.open(model, dims, shards)
	if err != nil {
		return serveRun{}, err
	}
	defer closeStore()
	slabs := dim0Slabs(s)
	clients := newClients(s, cfg.Seed, make([]string, cfg.Clients)...)
	run := serveRun{Disk: driveName(model), Shards: shards, Queries: cfg.Clients * cfg.Queries}
	var dlDone int
	start := time.Now()
	err = drive(clients, cfg.Queries, nil, func(c *client, i, _ int) (multimap.Stats, error) {
		ctx := context.Background()
		if i == 0 && cfg.Deadline > 0 {
			// The QoS session: the services count an expired query's
			// drops, and the run goes on.
			ctx, cancel := context.WithTimeout(ctx, cfg.Deadline)
			defer cancel()
			st, err := mixedQuery(ctx, c.sess, dims, c.rng)
			if err == nil {
				dlDone++
				run.DLMs += st.ElapsedMs
			} else if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				err = nil
			}
			return st, err
		}
		if cfg.WriteFraction > 0 && c.rng.Float64() < cfg.WriteFraction {
			return insertBurst(ctx, c.sess, dims, slabs, c.rng)
		}
		return mixedQuery(ctx, c.sess, dims, c.rng)
	})
	if err != nil {
		return serveRun{}, err
	}
	// Drain the write-back buffers before the books close, so deferred
	// group-commit costs land in the session totals (free with
	// write-back off or nothing dirty).
	if err := clients[0].sess.Flush(context.Background()); err != nil {
		return serveRun{}, err
	}
	run.Wall = time.Since(start).Seconds()
	if dlDone > 0 {
		run.DLMs /= float64(dlDone)
	}
	for _, c := range clients {
		st := c.sess.Stats()
		run.Sessions = append(run.Sessions, st)
		run.Sum.Accumulate(st)
	}
	run.Metrics = s.Metrics()
	return run, nil
}

// burstP999MinOps is the smallest class sample p999 is reported for:
// below 1000 ops the 99.9th percentile is just the sample maximum.
const burstP999MinOps = 1000

// burstClasses is the registry a QoS-on burst run uses without -qos:
// interactive:bulk 1:4 — bulk holds most of the weighted share, and
// interactive's tail still collapses because its small ops are
// admitted every pass instead of waiting out bulk's mega-batches.
var burstClasses = []multimap.QoSClass{
	{Name: "interactive", Weight: 1},
	{Name: "bulk", Weight: 4},
	{Name: "writer", Weight: 1},
}

// burstClass is one QoS class's row of the burst table.
type burstClass struct {
	Class   string
	Weight  int // DRR weight the run used (1 with QoS off)
	Clients int
	Ops     int // the sample size behind the percentiles
	// P50Ms, P99Ms and P999Ms are host latency percentiles, queueing
	// included; P999Ms is 0 below burstP999MinOps ops.
	P50Ms, P99Ms, P999Ms float64
	MeanSimMs            float64 // mean simulated disk ms per op
	// DeferredOps counts ops weighted-fair admission held back for at
	// least one pass — evidence DRR engaged (0 with QoS off).
	DeferredOps int64
}

// burstResult is the burst benchmark's structured result.
type burstResult struct {
	// GOMAXPROCS is the host parallelism: WallSeconds and AllocsPerOp
	// compare only between runs at the same value.
	GOMAXPROCS  int
	WallSeconds float64
	// AllocsPerOp is the run's heap allocations per client op, host
	// noise included: a trend line, not a -benchmem figure.
	AllocsPerOp float64
	Totals      multimap.ServiceTotals
	Classes     []burstClass
}

// burst is the closed-loop burst benchmark (-exp burst) on the first
// configured drive: every client belongs to one QoS class —
// interactive (hot-region reads), bulk (large scans) or writer (insert
// bursts) — and issues cfg.Queries ops back to back. The
// cfg.WriteFraction share of the clients (default 0.25) are writers,
// the rest split two to one between interactive and bulk, at least one
// per class. With cfg.FairQuantum > 0 every session declares its class
// under weighted-fair admission (burstClasses unless cfg.QoSClasses).
func burst(cfg serveConfig) (*multimap.ExperimentTable, *burstResult, error) {
	if cfg.WriteFraction == 0 {
		cfg.WriteFraction = 0.25
	}
	if cfg.FairQuantum > 0 && len(cfg.QoSClasses) == 0 {
		cfg.QoSClasses = burstClasses
	}
	// 64 ops per client: enough for an interpolated p99 to separate
	// from the maximum even on the smallest default class.
	cfg, err := cfg.resolve(4, 64)
	if err != nil {
		return nil, nil, err
	}
	dims := gridDims(cfg.Scale)
	s, closeStore, err := cfg.open(cfg.Disks[0], dims, max(1, cfg.Shards))
	if err != nil {
		return nil, nil, err
	}
	defer closeStore()

	writers := min(max(1, int(math.Round(float64(cfg.Clients)*cfg.WriteFraction))), max(1, cfg.Clients-2))
	interactive := max(1, ((cfg.Clients-writers)*2+2)/3)
	bulk := max(1, cfg.Clients-writers-interactive)
	var classes []string
	for _, mix := range []struct {
		class string
		n     int
	}{{"interactive", interactive}, {"bulk", bulk}, {"writer", writers}} {
		for k := 0; k < mix.n; k++ {
			classes = append(classes, mix.class)
		}
	}
	clients := newClients(s, cfg.Seed, classes...)
	slabs := dim0Slabs(s)

	ctx := context.Background()
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	err = drive(clients, cfg.Queries, nil, func(c *client, _, _ int) (multimap.Stats, error) {
		switch c.class {
		case "writer":
			return insertBurst(ctx, c.sess, dims, slabs, c.rng)
		case "bulk":
			return bulkScan(ctx, c.sess, dims, c.rng)
		}
		return mixedQuery(ctx, c.sess, dims, c.rng)
	})
	if err != nil {
		return nil, nil, err
	}
	// Drain the write-back buffers so deferred group commits are in the
	// books (free when nothing is dirty).
	if err := clients[0].sess.Flush(ctx); err != nil {
		return nil, nil, err
	}
	res := &burstResult{GOMAXPROCS: runtime.GOMAXPROCS(0), WallSeconds: time.Since(start).Seconds()}
	runtime.ReadMemStats(&memAfter)
	res.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(len(clients)*cfg.Queries)

	m := s.Metrics()
	res.Totals = m.Totals
	deferred := map[string]int64{}
	for _, ct := range m.Classes {
		deferred[ct.Class] = ct.Deferred
	}
	weight := map[string]int{}
	if cfg.FairQuantum > 0 {
		for _, cl := range cfg.QoSClasses {
			weight[cl.Name] = cl.Weight
		}
	}
	t := &multimap.ExperimentTable{
		ID: "burst",
		Title: fmt.Sprintf("Closed-loop burst traffic on %s, %v cells, write-back %s, QoS %s, %d flushes, %d coalesced; %.2fs wall, %.0f allocs/op at GOMAXPROCS=%d",
			driveName(cfg.Disks[0]), dims, onOff(cfg.WriteBack), qosMode(cfg.FairQuantum),
			res.Totals.FlushBatches, res.Totals.CoalescedWrites, res.WallSeconds, res.AllocsPerOp, res.GOMAXPROCS),
		Header: []string{"class", "weight", "clients", "ops", "p50 ms", "p99 ms", "p999 ms", "sim ms/op", "deferred"},
	}
	for _, class := range []string{"interactive", "bulk", "writer"} {
		lat, sim, n := latencies(clients, class)
		bc := burstClass{
			Class: class, Weight: max(1, weight[class]), Clients: n, Ops: len(lat),
			P50Ms: engine.Percentile(lat, 0.50), P99Ms: engine.Percentile(lat, 0.99),
			DeferredOps: deferred[class],
		}
		p999 := "-"
		if len(lat) >= burstP999MinOps {
			bc.P999Ms = engine.Percentile(lat, 0.999)
			p999 = fmt.Sprintf("%.3f", bc.P999Ms)
		}
		if len(lat) > 0 {
			bc.MeanSimMs = sim / float64(len(lat))
		}
		res.Classes = append(res.Classes, bc)
		t.Rows = append(t.Rows, []string{
			class, fmt.Sprint(bc.Weight), fmt.Sprint(n), fmt.Sprint(bc.Ops), fmt.Sprintf("%.3f", bc.P50Ms),
			fmt.Sprintf("%.3f", bc.P99Ms), p999, fmt.Sprintf("%.3f", bc.MeanSimMs), fmt.Sprint(bc.DeferredOps),
		})
	}
	return t, res, nil
}

// tenantPhase aggregates one lifecycle phase over the churn rounds.
type tenantPhase struct {
	Phase string
	// Ops counts the phase's operations: inserts for fill and
	// cow_writes, API calls otherwise.
	Ops int
	Ms  float64 // host wall ms
}

// tenantsResult is the tenants benchmark's structured result.
type tenantsResult struct {
	// GrownBlocks is the capacity explicit Pool.Grow calls added, and
	// AutoGrownBlocks what WithAutoGrow added when tenant B's fill
	// exhausted its overflow pool: the tenant grew online, unopened.
	GrownBlocks     int64
	AutoGrownBlocks int64
	// CowFaultBlocks counts parent blocks copied out by post-snapshot
	// writes: the copy-on-write path engaged.
	CowFaultBlocks int64
	// BurstOps and the percentiles describe tenant A's live traffic
	// while tenant B churned.
	BurstOps   int
	BurstP50Ms float64
	BurstP99Ms float64
	Phases     []tenantPhase
}

// tenantsDims scales the two tenants' dataset shapes. Tenant B stays
// small so filling it past its overflow capacity is cheap.
func tenantsDims(scale float64) (a, b []int) {
	f := math.Cbrt(scale)
	d := func(base, floor int) int { return max(floor, int(float64(base)*f+0.5)) }
	return []int{d(40, 8), d(16, 6), d(8, 4)}, []int{d(12, 6), d(6, 4), d(4, 3)}
}

// tenants is the multi-tenant churn benchmark (-exp tenants) on a pool
// of two drives of the first configured model: tenant A serves a
// closed-loop burst on drive 0 (cfg.Clients sessions, default 3, under
// weighted-fair admission when cfg.FairQuantum > 0) while tenant B, on
// drive 1, is created, filled past its overflow pool (absorbed by the
// pool's auto-grow), grown, snapshotted, cloned, queried through the
// clone, dirtied past the snapshot (copy-on-write faults) and destroyed
// — twice. cfg.WriteBack and its knobs set tenant B's write path.
func tenants(cfg serveConfig) (*multimap.ExperimentTable, *tenantsResult, error) {
	cfg, err := cfg.resolve(3, 0)
	if err != nil {
		return nil, nil, err
	}
	model := cfg.Disks[0]
	const rounds = 2
	ctx := context.Background()
	dimsA, dimsB := tenantsDims(cfg.Scale)

	// Auto-grow by about one overflow extent per member disk, so each
	// exhaustion shows as a modest, countable step.
	p, err := multimap.OpenPool(multimap.WithPoolDrives(model, model), multimap.WithAutoGrow(256))
	if err != nil {
		return nil, nil, err
	}
	if len(cfg.QoSClasses) == 0 {
		cfg.QoSClasses = burstClasses[:2] // interactive:bulk 1:4
	}
	aOpts := append([]multimap.Option{multimap.WithDrives(0), multimap.WithCache(1 << 18)}, cfg.qosOptions()...)
	ta, err := p.Create(ctx, "tenant-a", multimap.MultiMap, dimsA, aOpts...)
	if err != nil {
		return nil, nil, err
	}
	defer p.Destroy(ctx, "tenant-a")

	// Tenant A's workers serve until the churn finishes, at least one op
	// each, so every result carries live-traffic evidence.
	classes := make([]string, cfg.Clients)
	for i := range classes {
		classes[i] = "interactive"
		if cfg.FairQuantum > 0 && i%2 == 1 {
			classes[i] = "bulk"
		}
	}
	workers := newClients(ta.Store(), cfg.Seed, classes...)
	done := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		served <- drive(workers, 0, done, func(c *client, i, q int) (multimap.Stats, error) {
			if (i+q)%2 == 0 {
				return c.sess.Beam(ctx, 0, []int{0, (q * 3) % dimsA[1], q % dimsA[2]})
			}
			lo := []int{(q * 5) % (dimsA[0] / 2), 0, 0}
			return c.sess.RangeQuery(ctx, lo, []int{lo[0] + dimsA[0]/4, dimsA[1] / 2, dimsA[2] / 2})
		})
	}()

	bOpts := []multimap.Option{
		multimap.WithDrives(1),
		multimap.Updatable(multimap.UpdateOptions{PointsPerBlock: 4, FillFactor: multimap.Frac(1)}),
	}
	if cfg.WriteBack {
		bOpts = append(bOpts, multimap.WithWriteBack(cfg.WBWatermark, cfg.WBInterval))
	}
	res := &tenantsResult{}
	cell := []int{0, 0, 0}
	var tb, tc *multimap.Tenant
	var snap *multimap.Snapshot
	// One churn round, phase by phase; each phase returns how many
	// operations it ran: inserts for fill and cow_writes, API calls
	// otherwise.
	phases := []struct {
		name string
		run  func() (int, error)
	}{
		{"create", func() (n int, err error) {
			tb, err = p.Create(ctx, "tenant-b", multimap.MultiMap, dimsB, bOpts...)
			return 1, err
		}},
		// Fill one cell's chain past the initial overflow pool — §4.6's
		// growth limit. Auto-grow absorbs the exhaustion online, visible
		// as an allocated-capacity step, and the fill stops there.
		{"fill", func() (int, error) {
			initial := tb.Blocks()
			for fills := 1; fills <= 100000; fills++ {
				if _, err := tb.Store().Insert(ctx, cell); err != nil || tb.Blocks() > initial {
					return fills, err
				}
			}
			return 0, errors.New("tenants: overflow never exhausted after 100000 inserts")
		}},
		{"grow", func() (int, error) {
			before := tb.Blocks()
			if err := p.Grow(ctx, "tenant-b", before/2+1); err != nil {
				return 1, err
			}
			_, err := tb.Store().Insert(ctx, cell) // the blocked insert now fits
			res.GrownBlocks += tb.Blocks() - before
			return 1, err
		}},
		{"snapshot", func() (n int, err error) {
			snap, err = p.Snapshot(ctx, "tenant-b")
			return 1, err
		}},
		{"clone", func() (n int, err error) {
			tc, err = p.Clone(ctx, snap, "tenant-b-clone")
			return 1, err
		}},
		{"query_clone", func() (int, error) {
			if _, err := tc.Store().FetchCell(ctx, cell); err != nil {
				return 2, err
			}
			_, err := tc.Store().Beam(ctx, 0, []int{0, 0, 0})
			return 2, err
		}},
		// Dirty the parent past the snapshot: these inserts fault shared
		// blocks into private copies before landing.
		{"cow_writes", func() (int, error) {
			for i := 0; i < 8; i++ {
				st, err := tb.Store().Insert(ctx, cell)
				if err != nil {
					return 8, err
				}
				res.CowFaultBlocks += st.CowFaultBlocks
			}
			return 8, tb.Store().Flush(ctx)
		}},
		{"destroy", func() (int, error) {
			defer snap.Free()
			if err := p.Destroy(ctx, "tenant-b-clone"); err != nil {
				return 3, err
			}
			return 3, p.Destroy(ctx, "tenant-b")
		}},
	}
	res.Phases = make([]tenantPhase, len(phases))
	var churnErr error
	for r := 0; r < rounds && churnErr == nil; r++ {
		for i := 0; i < len(phases) && churnErr == nil; i++ {
			t0 := time.Now()
			ops, err := phases[i].run()
			res.Phases[i].Phase = phases[i].name
			res.Phases[i].Ops += ops
			res.Phases[i].Ms += float64(time.Since(t0)) / float64(time.Millisecond)
			churnErr = err
		}
	}
	close(done)
	if err := errors.Join(churnErr, <-served); err != nil {
		return nil, nil, err
	}
	for _, w := range workers {
		w.sess.Close(ctx)
	}
	for _, u := range p.Usage() {
		res.AutoGrownBlocks += u.AutoGrownBlocks
	}
	lat, _, _ := latencies(workers, "")
	res.BurstOps = len(lat)
	res.BurstP50Ms = engine.Percentile(lat, 0.50)
	res.BurstP99Ms = engine.Percentile(lat, 0.99)

	t := &multimap.ExperimentTable{
		ID: "tenants",
		Title: fmt.Sprintf("Multi-tenant churn on 2x %s, %d rounds, QoS %s, %d blocks grown (%d auto), %d COW fault blocks",
			model, rounds, qosMode(cfg.FairQuantum), res.GrownBlocks, res.AutoGrownBlocks, res.CowFaultBlocks),
		Header: []string{"phase", "ops", "total ms"},
	}
	for _, ph := range res.Phases {
		t.Rows = append(t.Rows, []string{ph.Phase, fmt.Sprint(ph.Ops), fmt.Sprintf("%.3f", ph.Ms)})
	}
	t.Rows = append(t.Rows, []string{"live burst (p50/p99 ms)", fmt.Sprint(res.BurstOps),
		fmt.Sprintf("%.3f / %.3f", res.BurstP50Ms, res.BurstP99Ms)})
	return t, res, nil
}

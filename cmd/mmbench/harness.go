package main

// The serving harness: serve measures the stack beyond the paper's §5 —
// sessions, cross-query coalescing, the extent cache, write-back,
// deadline admission and sharding. It builds its stack the way a user
// does, through the public API: OpenVolume and Open with options, then
// one session per client.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	multimap "repro"
	"repro/internal/disk"
)

// serveConfig scopes the serving harness: the paper's config (drives,
// scale, seed, policy, chunk) plus one field per serving flag.
type serveConfig struct {
	multimap.ExperimentConfig
	// Clients and Queries are the concurrent sessions and the ops each
	// issues; 0 takes the harness's default.
	Clients int
	Queries int
	// CacheBlocks sizes each shard's extent cache (0 = off).
	CacheBlocks int64
	// WriteFraction in [0,1) is the share of ops that are insert bursts.
	WriteFraction float64
	// Shards tops the scaling ladder (1, 2, 4, ... Shards); 0 means one.
	Shards int
	// Deadline, when positive, runs each of client 0's queries under
	// that timeout: the QoS session.
	Deadline time.Duration
	// The rest are the open options of the same names: WithBatchWindow,
	// WithDeadlineAging and WithWriteBack.
	BatchWindow   time.Duration
	DeadlineAging time.Duration
	WriteBack     bool
	WBWatermark   int64
	WBInterval    time.Duration
}

// validate checks the serving fields' ranges, then the paper config's
// through its own validator.
func (c serveConfig) validate() error {
	if c.Clients < 0 || c.Queries < 0 || c.CacheBlocks < 0 || c.Shards < 0 {
		return errors.New("clients, queries, cache blocks and shards must be non-negative")
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

// onOff renders a title's mode word.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// client is one closed-loop client of the harness: its session and a
// seeded random stream.
type client struct {
	sess *multimap.Session
	rng  *rand.Rand
}

// newClients begins n sessions on s; client i's random stream is seeded
// seed + 7919·i.
func newClients(s *multimap.Store, seed int64, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{sess: s.Begin(), rng: rand.New(rand.NewSource(seed + int64(i)*7919))}
	}
	return cs
}

// drive runs each client on its own goroutine, issuing n ops op(c, i)
// back to back, and returns once every client has stopped, with the
// first error.
func drive(clients []*client, n int, op func(c *client, i int) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for q := 0; q < n; q++ {
				if err := op(c, i); err != nil {
					errs[i] = fmt.Errorf("client %d op %d: %w", i, q, err)
					return
				}
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

// insertBurst is one update op: eight point inserts into a cell on the
// hot region's grid. With several shards the Dim0 slot is drawn inside
// a random shard's slab, so every shard takes write traffic; with one,
// the slab is all of Dim0 and the cell lies in the hot read region.
func insertBurst(ctx context.Context, sess *multimap.Session, dims []int, slabs [][2]int, rng *rand.Rand) error {
	cell := make([]int, len(dims))
	for i, d := range dims {
		cell[i] = hotSlot(rng, d)
	}
	if len(slabs) > 1 {
		slab := slabs[rng.Intn(len(slabs))]
		cell[0] = slab[0] + hotSlot(rng, slab[1]-slab[0])
	}
	for k := 0; k < 8; k++ {
		if _, err := sess.Insert(ctx, cell); err != nil {
			return err
		}
	}
	return nil
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
	clients := newClients(s, cfg.Seed, cfg.Clients)
	run := serveRun{Disk: driveName(model), Shards: shards, Queries: cfg.Clients * cfg.Queries}
	var dlDone int
	start := time.Now()
	err = drive(clients, cfg.Queries, func(c *client, i int) error {
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
			return err
		}
		if cfg.WriteFraction > 0 && c.rng.Float64() < cfg.WriteFraction {
			return insertBurst(ctx, c.sess, dims, slabs, c.rng)
		}
		_, err := mixedQuery(ctx, c.sess, dims, c.rng)
		return err
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

package experiments

// Burst-traffic serving benchmark: a closed-loop mixed workload where
// every client belongs to one of three QoS classes — "interactive"
// (small hot-region reads, the latency-sensitive traffic), "bulk"
// (large uniform range scans), and "writer" (update bursts through the
// write path) — all hammering one rig at once. Each class reports the
// host-observed per-op latency trajectory (p50/p99/p999) plus the mean
// simulated disk time, so a write-back run shows directly where group
// commit buys tail latency: writer ops return as soon as the buffer
// absorbs them, and readers pay the (merged, cheaper) flushes instead
// of queueing behind every small write.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/shard"
)

// burstP999MinOps is the smallest per-class sample for which p999 is
// reported: below 1000 ops the 99.9th percentile is just the sample
// maximum (p99 == p999 at 96 ops).
const burstP999MinOps = 1000

// BurstClass is one QoS class's latency trajectory.
type BurstClass struct {
	Class   string
	Weight  int // DRR weight the run used (1 when QoS off)
	Clients int
	// Ops is the class's sample size — read it before trusting the tail
	// percentiles.
	Ops   int
	P50Ms float64 // host-observed per-op latency percentiles
	P99Ms float64 // (closed loop: queueing included)
	// P999Ms is 0 (not reported) when Ops < burstP999MinOps.
	P999Ms    float64
	MeanSimMs float64 // mean simulated disk ms per op
	// DeferredOps counts ops the weighted-fair scheduler held back for
	// at least one admission pass — direct evidence DRR engaged (0 when
	// QoS off).
	DeferredOps int64
}

// BurstResult is the burst benchmark's structured result.
type BurstResult struct {
	// GOMAXPROCS is the host parallelism the run had — WallSeconds and
	// AllocsPerOp are only comparable between runs at the same value.
	GOMAXPROCS  int
	WallSeconds float64
	// AllocsPerOp is the mean number of heap allocations per client op
	// across the whole closed-loop run (runtime.MemStats.Mallocs delta
	// over total ops) — the admission hot path's allocation trajectory.
	// Host-side noise (GC bookkeeping, other goroutines) is included, so
	// read it as a trend line, not an exact -benchmem figure.
	AllocsPerOp float64
	// Totals folds the shard services' totals; the table's title reads
	// its group-commit and coalescing counters.
	Totals  engine.ServiceTotals
	Classes []BurstClass
}

// burstQoSClasses is the class registry a QoS-on burst run uses: the
// acceptance mix weights interactive:bulk 1:4 — bulk holds most of the
// weighted share, and interactive's tail still collapses because its
// small ops are admitted every pass in their own batches instead of
// coalescing into (and waiting out) bulk's mega-batches.
var burstQoSClasses = []engine.QoSClass{
	{Name: "interactive", Weight: 1},
	{Name: "bulk", Weight: 4},
	{Name: "writer", Weight: 1},
}

// burstWeight returns the registered DRR weight of a class in this
// run's registry (1 when QoS is off or the class is unregistered).
func burstWeight(classes []engine.QoSClass, quantum int64, name string) int {
	if quantum <= 0 {
		return 1
	}
	for _, c := range classes {
		if c.Name == name && c.Weight > 1 {
			return c.Weight
		}
	}
	return 1
}

// burstClient is one closed-loop client: a class, a seed lane, and the
// recorded per-op host latencies and simulated costs.
type burstClient struct {
	class  string
	hostMs []float64
	simMs  float64
	err    error
}

// BurstTraffic runs the closed-loop burst benchmark on the first
// configured drive. Client counts derive from cfg.Clients and
// cfg.WriteFraction: the write share of the clients are writers, the
// rest split two-to-one between interactive and bulk, at least one
// client per class. Each client issues cfg.Queries ops back to back.
// With cfg.FairQuantum > 0 every session declares its class and the
// services run weighted-fair admission under the 1:4
// interactive:bulk registry (burstQoSClasses) with class-partitioned
// extent caches.
func BurstTraffic(cfg Config) (*Table, *BurstResult, error) {
	cfg = cfg.Defaults()
	if cfg.Clients == 0 {
		cfg.Clients = 4
	}
	if cfg.Queries == 0 {
		// 64 ops per client: enough sample for an interpolated p99 to
		// separate from the maximum even on the smallest default class.
		cfg.Queries = 64
	}
	if cfg.WriteFraction == 0 {
		cfg.WriteFraction = 0.25
	}
	if cfg.FairQuantum > 0 && len(cfg.QoSClasses) == 0 {
		cfg.QoSClasses = burstQoSClasses
	}
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	g := disks[0]
	dims := synthChunkDims(cfg.Scale)
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return nil, nil, err
	}
	rig, err := buildServeRig(cfg, g, dims, shards)
	if err != nil {
		return nil, nil, err
	}
	defer rig.close()

	writers := int(math.Round(float64(cfg.Clients) * cfg.WriteFraction))
	if writers < 1 {
		writers = 1
	}
	if writers > cfg.Clients-2 {
		writers = max(1, cfg.Clients-2)
	}
	rest := cfg.Clients - writers
	interactive := max(1, (rest*2+2)/3)
	bulk := max(1, rest-interactive)

	var clients []*burstClient
	for i := 0; i < interactive; i++ {
		clients = append(clients, &burstClient{class: "interactive"})
	}
	for i := 0; i < bulk; i++ {
		clients = append(clients, &burstClient{class: "bulk"})
	}
	for i := 0; i < writers; i++ {
		clients = append(clients, &burstClient{class: "writer"})
	}

	sessions := make([]*shard.Session, len(clients))
	for i := range sessions {
		sessions[i] = rig.grp.Begin(engine.SessionOptions{MaxInflight: 2, Class: clients[i].class})
	}
	var wg sync.WaitGroup
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *burstClient) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
			for q := 0; q < cfg.Queries; q++ {
				var (
					st  engine.Stats
					err error
				)
				t0 := time.Now()
				switch c.class {
				case "writer":
					st, err = runInsertBurst(context.Background(), rig.grp, rig.cells, sessions[i], dims, rng)
				case "bulk":
					st, err = runBulkScan(context.Background(), sessions[i], dims, rng)
				default:
					st, err = runMixedQuery(context.Background(), sessions[i], grid, dims, rng)
				}
				if err != nil {
					c.err = fmt.Errorf("%s client %d op %d: %w", c.class, i, q, err)
					return
				}
				c.hostMs = append(c.hostMs, float64(time.Since(t0))/float64(time.Millisecond))
				c.simMs += st.TotalMs
			}
		}(i, c)
	}
	wg.Wait()
	for _, c := range clients {
		if c.err != nil {
			return nil, nil, c.err
		}
	}
	// Drain the write-back buffers so deferred group-commit work is in
	// the books (free when nothing is dirty).
	if err := sessions[0].Flush(context.Background()); err != nil {
		return nil, nil, err
	}
	wall := time.Since(start).Seconds()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)
	totalOps := cfg.Clients * cfg.Queries

	res := &BurstResult{GOMAXPROCS: runtime.GOMAXPROCS(0), WallSeconds: wall}
	if totalOps > 0 {
		res.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(totalOps)
	}
	for _, tot := range rig.grp.ServiceTotals() {
		res.Totals.Accumulate(tot)
	}
	deferredBy := map[string]int64{}
	for _, ct := range rig.grp.ClassTotals() {
		deferredBy[ct.Class] = ct.Deferred
	}
	for _, class := range []string{"interactive", "bulk", "writer"} {
		var lat []float64
		var sim float64
		n := 0
		for _, c := range clients {
			if c.class != class {
				continue
			}
			n++
			lat = append(lat, c.hostMs...)
			sim += c.simMs
		}
		sort.Float64s(lat)
		bc := BurstClass{
			Class:   class,
			Weight:  burstWeight(cfg.QoSClasses, cfg.FairQuantum, class),
			Clients: n, Ops: len(lat),
			P50Ms:       engine.Percentile(lat, 0.50),
			P99Ms:       engine.Percentile(lat, 0.99),
			DeferredOps: deferredBy[class],
		}
		if len(lat) >= burstP999MinOps {
			bc.P999Ms = engine.Percentile(lat, 0.999)
		}
		if len(lat) > 0 {
			bc.MeanSimMs = sim / float64(len(lat))
		}
		res.Classes = append(res.Classes, bc)
	}

	wbMode := "off"
	if cfg.WriteBack {
		wbMode = "on"
	}
	qosMode := "off"
	if cfg.FairQuantum > 0 {
		qosMode = fmt.Sprintf("quantum %d", cfg.FairQuantum)
	}
	t := &Table{
		ID: "burst",
		Title: fmt.Sprintf("Closed-loop burst traffic on %s, %v cells, write-back %s, QoS %s, %d flushes, %d coalesced; %.2fs wall, %.0f allocs/op at GOMAXPROCS=%d",
			g.Name, dims, wbMode, qosMode, res.Totals.FlushBatches, res.Totals.CoalescedWrites,
			res.WallSeconds, res.AllocsPerOp, res.GOMAXPROCS),
		Header: []string{"class", "weight", "clients", "ops", "p50 ms", "p99 ms", "p999 ms", "sim ms/op", "deferred"},
	}
	for _, bc := range res.Classes {
		p999 := "-"
		if bc.Ops >= burstP999MinOps {
			p999 = f3(bc.P999Ms)
		}
		t.Rows = append(t.Rows, []string{
			bc.Class, fmt.Sprint(bc.Weight), fmt.Sprint(bc.Clients), fmt.Sprint(bc.Ops),
			f3(bc.P50Ms), f3(bc.P99Ms), p999, f3(bc.MeanSimMs), fmt.Sprint(bc.DeferredOps),
		})
	}
	return t, res, nil
}

// runBulkScan issues one large uniform range box — the bulk class's
// scan-heavy op shape, sized well above the interactive class's
// hot-region boxes.
func runBulkScan(ctx context.Context, sess *shard.Session, dims []int, rng *rand.Rand) (engine.Stats, error) {
	lo := make([]int, len(dims))
	hi := make([]int, len(dims))
	for i, d := range dims {
		side := max(2, d/4)
		if side > d {
			side = d
		}
		lo[i] = rng.Intn(d - side + 1)
		hi[i] = lo[i] + side
	}
	return sess.Box(ctx, lo, hi)
}

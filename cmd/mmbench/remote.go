package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	multimap "repro"
	"repro/internal/engine"
	"repro/internal/server"
)

// remoteConfig is the -remote client-mode knob set, carved out of the
// shared flag block.
type remoteConfig struct {
	Addr     string
	Store    string
	Class    string
	Clients  int
	Queries  int
	Writes   float64
	Deadline time.Duration
	Seed     int64
}

// validate checks the ranges of the flags -remote reads.
func (c remoteConfig) validate() error {
	if c.Clients < 0 || c.Queries < 0 {
		return errors.New("clients and queries must be non-negative")
	}
	if c.Writes < 0 || c.Writes >= 1 {
		return fmt.Errorf("write fraction %v outside [0,1)", c.Writes)
	}
	if c.Deadline < 0 {
		return errors.New("deadline must be non-negative")
	}
	return nil
}

// remoteClientRow is one client session's aggregate over the run.
type remoteClientRow struct {
	id         int
	session    string
	queries    int
	chunks     int
	errs       int            // failed ops; an op's own -deadline expiring is not one
	stats      multimap.Stats // summed per-query simulated stats
	hostMs     []float64      // per-query host wall latency
	firstChunk []float64      // per-query first-chunk host latency
}

// runRemote drives serve-style load against a running mmserved daemon:
// N concurrent wire sessions each issue Q streamed range queries (with
// an optional fraction of writes, each an insert or a delete followed
// by a fetch of its cell) against one store, then the
// run reports per-client simulated cost, host latency, first-chunk
// latency — the streaming proof — and the daemon's own metrics
// snapshot. It fails if any operation failed for a reason other than
// its own -deadline expiring.
func runRemote(cfg remoteConfig) error {
	ctx := context.Background()
	c := server.NewClient(cfg.Addr)

	info, err := func() (server.StoreInfo, error) {
		infos, err := c.Stores(ctx)
		if err != nil {
			return server.StoreInfo{}, err
		}
		for _, in := range infos {
			if in.Name == cfg.Store {
				return in, nil
			}
		}
		return server.StoreInfo{}, fmt.Errorf("store %q not open on %s", cfg.Store, cfg.Addr)
	}()
	if err != nil {
		return err
	}
	dims := info.Dims
	if len(dims) == 0 {
		return fmt.Errorf("store %q reports no dimensions", cfg.Store)
	}

	clients := cfg.Clients
	if clients <= 0 {
		clients = 4
	}
	queries := cfg.Queries
	if queries <= 0 {
		queries = 32
	}
	deadlineMs := int64(0)
	if cfg.Deadline > 0 {
		deadlineMs = int64(cfg.Deadline / time.Millisecond)
		if deadlineMs < 1 {
			deadlineMs = 1
		}
	}

	rows := make([]remoteClientRow, clients)
	var wg sync.WaitGroup
	for i := range rows {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows[i] = runRemoteClient(ctx, c, cfg, i, dims, queries, deadlineMs)
		}(i)
	}
	wg.Wait()

	fmt.Printf("remote serve: %s store=%s clients=%d queries=%d", cfg.Addr, cfg.Store, clients, queries)
	if cfg.Class != "" {
		fmt.Printf(" class=%s", cfg.Class)
	}
	if cfg.Writes > 0 {
		fmt.Printf(" writes=%.2f", cfg.Writes)
	}
	if deadlineMs > 0 {
		fmt.Printf(" deadline=%dms", deadlineMs)
	}
	fmt.Println()
	fmt.Printf("%-8s %8s %8s %6s %12s %12s %14s %10s\n",
		"client", "queries", "chunks", "errs", "ms/cell", "host-p50ms", "first-chunkms", "cancelled")
	var sum multimap.Stats
	errs := 0
	for _, row := range rows {
		sum.Accumulate(row.stats)
		errs += row.errs
		sort.Float64s(row.hostMs)
		sort.Float64s(row.firstChunk)
		fmt.Printf("%-8s %8d %8d %6d %12.4f %12.3f %14.3f %10d\n",
			fmt.Sprintf("c%d/%s", row.id, row.session),
			row.queries, row.chunks, row.errs,
			row.stats.MsPerCell(),
			engine.Percentile(row.hostMs, 0.50),
			engine.Percentile(row.firstChunk, 0.50),
			row.stats.Cancelled+row.stats.DeadlineExceeded)
	}
	fmt.Printf("total: cells=%d requests=%d simulated-ms=%.1f\n",
		sum.Cells, sum.Requests, sum.TotalMs)

	m, err := c.Metrics(ctx, cfg.Store)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	fmt.Printf("daemon: queries=%d queue_depth=%d cache_hit_rate=%.3f p50=%.3fms p99=%.3fms batches=%d merged=%d max_batch=%d\n",
		m.Queries, m.QueueDepth, m.CacheHitRate, m.LatencyP50Ms, m.LatencyP99Ms,
		m.Totals.Batches, m.Totals.MergedBatches, m.Totals.MaxBatchChunks)
	if errs > 0 {
		return fmt.Errorf("%d operations failed", errs)
	}
	return nil
}

// fail counts an operation's error in errs, unless it is only the
// op's own -deadline expiring on the daemon: that is what -deadline
// asks for, and the cancelled column counts it.
func (row *remoteClientRow) fail(err error, deadlineMs int64) {
	if deadlineMs <= 0 || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		row.errs++
	}
}

// runRemoteClient is one client goroutine: open a session, issue the
// query mix, fold each query's stats into the row, and close the session
// (which flushes its write-back residue).
func runRemoteClient(ctx context.Context, c *server.Client, cfg remoteConfig, id int, dims []int, queries int, deadlineMs int64) remoteClientRow {
	row := remoteClientRow{id: id}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
	sess, err := c.Begin(ctx, cfg.Store, cfg.Class)
	if err != nil {
		row.errs++
		return row
	}
	row.session = sess
	var inserted [][]int // cells holding a point this session inserted
	for q := 0; q < queries; q++ {
		if cfg.Writes > 0 && rng.Float64() < cfg.Writes {
			inserted = row.write(ctx, c, cfg.Store, sess, rng, dims, inserted, deadlineMs)
			continue
		}
		lo, hi := randomBox(rng, dims)
		start := time.Now()
		first := -1.0
		tr, err := c.RangeQuery(ctx, cfg.Store, sess, lo, hi, deadlineMs, func(multimap.RangeChunk) {
			if first < 0 {
				first = time.Since(start).Seconds() * 1e3
			}
			row.chunks++
		})
		row.hostMs = append(row.hostMs, time.Since(start).Seconds()*1e3)
		if first >= 0 {
			row.firstChunk = append(row.firstChunk, first)
		}
		row.stats.Accumulate(tr.Stats)
		if err != nil {
			row.fail(err, deadlineMs)
		}
		row.queries++
	}
	if _, err := c.CloseSession(ctx, cfg.Store, sess); err != nil {
		row.errs++
	}
	return row
}

// write is one op of the -writes mix: with probability ½ it deletes a
// point this session inserted earlier, so a delete never meets an empty
// cell, and otherwise it inserts one into a random cell. A FetchCell of
// the same cell follows, reading the chain the write left. It returns
// the session's inserted cells after the op.
func (row *remoteClientRow) write(ctx context.Context, c *server.Client, store, sess string, rng *rand.Rand, dims []int, inserted [][]int, deadlineMs int64) [][]int {
	var cell []int
	var st multimap.Stats
	var err error
	if len(inserted) > 0 && rng.Intn(2) == 0 {
		k := rng.Intn(len(inserted))
		cell = inserted[k]
		inserted[k] = inserted[len(inserted)-1]
		inserted = inserted[:len(inserted)-1]
		st, err = c.Delete(ctx, store, sess, cell, deadlineMs)
	} else {
		cell = make([]int, len(dims))
		for d := range dims {
			cell[d] = rng.Intn(dims[d])
		}
		if st, err = c.Insert(ctx, store, sess, cell, deadlineMs); err == nil {
			inserted = append(inserted, cell)
		}
	}
	row.stats.Accumulate(st)
	if err != nil {
		row.fail(err, deadlineMs)
	}
	st, err = c.FetchCell(ctx, store, sess, cell, deadlineMs)
	row.stats.Accumulate(st)
	if err != nil {
		row.fail(err, deadlineMs)
	}
	return inserted
}

// randomBox picks a non-empty axis-aligned box inside dims, biased
// small (an eighth of each extent) so queries stream several chunks
// without dominating the run.
func randomBox(rng *rand.Rand, dims []int) (lo, hi []int) {
	lo = make([]int, len(dims))
	hi = make([]int, len(dims))
	for d, n := range dims {
		span := n / 8
		if span < 1 {
			span = 1
		}
		w := 1 + rng.Intn(span)
		if w > n {
			w = n
		}
		lo[d] = rng.Intn(n - w + 1)
		hi[d] = lo[d] + w
	}
	return lo, hi
}

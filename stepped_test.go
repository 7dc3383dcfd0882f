package multimap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// The serving mix, stepped: sessions of one store issue their ops
// round-robin from a single goroutine, every query unchunked, so each
// service's queue holds one op at a time and every admission batch is
// the one op — the simulated numbers are values, not samples of how the
// host interleaves clients.

// hotSlot draws a coordinate on the hot region's grid along a side of
// d cells: slots max(1, d/16) wide inside the first eighth.
func hotSlot(rng *rand.Rand, d int) int {
	side := max(1, d/16)
	return rng.Intn(max(1, d/8/side)) * side
}

// mixedQuery issues one read of the mix: half uniform beams, a quarter
// small uniform boxes and a quarter hot-region boxes — the overlapping
// share the extent cache absorbs.
func mixedQuery(sess *Session, dims []int, rng *rand.Rand) error {
	ctx := context.Background()
	roll := rng.Intn(4)
	if roll < 2 {
		dim := rng.Intn(len(dims))
		fixed := make([]int, len(dims))
		for i, d := range dims {
			if i != dim {
				fixed[i] = rng.Intn(d)
			}
		}
		_, err := sess.Beam(ctx, dim, fixed)
		return err
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
	_, err := sess.RangeQuery(ctx, lo, hi)
	return err
}

// insertBurst is one update op of the mix: eight point inserts into a
// cell on the hot region's grid. On a sharded store the Dim0 slot is
// drawn inside a random shard's slab, so every shard takes writes and
// each shard's overflow pool is exercised.
func insertBurst(sess *Session, dims []int, slabs [][2]int, rng *rand.Rand) error {
	cell := make([]int, len(dims))
	for i, d := range dims {
		cell[i] = hotSlot(rng, d)
	}
	if len(slabs) > 1 {
		slab := slabs[rng.Intn(len(slabs))]
		cell[0] = slab[0] + hotSlot(rng, slab[1]-slab[0])
	}
	for k := 0; k < 8; k++ {
		if _, err := sess.Insert(context.Background(), cell); err != nil {
			return err
		}
	}
	return nil
}

// dim0Slabs recovers each shard's Dim0 slab [lo, hi) by scanning
// ShardOf along Dim0: slabs are contiguous and in shard order.
func dim0Slabs(t *testing.T, s *Store) [][2]int {
	t.Helper()
	slabs := make([][2]int, s.NumShards())
	cell := make([]int, len(s.Dims()))
	for x := 0; x < s.Dims()[0]; x++ {
		cell[0] = x
		si, err := s.ShardOf(cell)
		if err != nil {
			t.Fatal(err)
		}
		if slabs[si][1] == 0 {
			slabs[si][0] = x
		}
		slabs[si][1] = x + 1
	}
	return slabs
}

// mixRun is one stepped run's books: the sessions' summed Stats and the
// store's metrics after the closing flush.
type mixRun struct {
	ops     int
	sum     Stats
	metrics Metrics
}

func (r mixRun) msPerQuery() float64 { return r.sum.TotalMs / float64(r.ops) }

// steppedMix opens an updatable MultiMap store over the 38³ grid (the
// synthetic dataset at scale 0.15) on a fresh Atlas 10k III volume, with
// a 4 Mi-block extent cache and opts, then drives the mix: sessions ×
// ops, each op an insert burst with probability writes, session i seeded
// seed + 7919·i. Session 0 flushes at the end, so deferred group commits
// land in the books.
func steppedMix(t *testing.T, sessions, ops int, writes float64, seed int64, opts ...Option) mixRun {
	t.Helper()
	vol, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	dims := []int{38, 38, 38}
	opts = append([]Option{WithCache(4194304), Updatable(UpdateOptions{OverflowBlocks: 1 << 16})}, opts...)
	s, err := Open(vol, MultiMap, dims, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	slabs := dim0Slabs(t, s)
	sess := make([]*Session, sessions)
	rngs := make([]*rand.Rand, sessions)
	for i := range sess {
		sess[i], rngs[i] = s.Begin(), rand.New(rand.NewSource(seed+int64(i)*7919))
	}
	for q := 0; q < ops; q++ {
		for i, rng := range rngs {
			var err error
			if rng.Float64() < writes {
				err = insertBurst(sess[i], dims, slabs, rng)
			} else {
				err = mixedQuery(sess[i], dims, rng)
			}
			if err != nil {
				t.Fatalf("session %d op %d: %v", i, q, err)
			}
		}
	}
	if err := sess[0].Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := mixRun{ops: sessions * ops, metrics: s.Metrics()}
	for _, q := range sess {
		r.sum.Accumulate(q.Stats())
	}
	return r
}

// checkAttribution holds the sessions' summed Stats to the services'
// attributed totals: counters exactly, time to rounding (the same
// addends, associated per session on one side and per service on the
// other).
func checkAttribution(t *testing.T, r mixRun) {
	t.Helper()
	var want Stats
	for _, sh := range r.metrics.Shards {
		want.Accumulate(sh.Totals.Attributed)
	}
	got := r.sum
	if got.Cells != want.Cells || got.Requests != want.Requests || got.Writes != want.Writes ||
		got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses ||
		got.InvalidatedBlocks != want.InvalidatedBlocks || got.CoalescedWrites != want.CoalescedWrites ||
		got.FlushBatches != want.FlushBatches {
		t.Fatalf("attribution sum broken: sessions %+v vs attributed %+v", got, want)
	}
	if d := math.Abs(got.TotalMs - want.TotalMs); d > 1e-9*(1+want.TotalMs) {
		t.Fatalf("attributed time drifted by %g: %v vs %v ms", d, got.TotalMs, want.TotalMs)
	}
}

// TestWriteBackSteppedMix is PAPER.md's write-back claim as simulated
// time: four sessions × 16 ops of the mix, 30 % of them insert bursts,
// write-through against write-back. The write-back arm's hour-long
// interval keeps the timer out, so group commits come from read
// dependencies, the default watermark and the closing flush. Per query,
// write-back must cost less; ms/query, the writes, the coalesced writes
// and the group commits are pinned.
func TestWriteBackSteppedMix(t *testing.T) {
	type books struct {
		msPerQuery                    float64
		writes, coalesced, flushBatch int64
	}
	want := map[bool]books{ // write-back off, on
		false: {30.625501093294012, 152, 0, 0},
		true:  {17.340060131195315, 152, 137, 4},
	}
	// Three repeats in one process: a stepped run is a value.
	for rep := 0; rep < 3; rep++ {
		got := map[bool]books{}
		for _, wb := range []bool{false, true} {
			var opts []Option
			if wb {
				opts = append(opts, WithWriteBack(0, time.Hour))
			}
			r := steppedMix(t, 4, 16, 0.3, 5, opts...)
			checkAttribution(t, r)
			tot := r.metrics.Totals
			got[wb] = books{r.msPerQuery(), r.sum.Writes, tot.CoalescedWrites, tot.FlushBatches}
			if got[wb] != want[wb] {
				t.Errorf("repeat %d, write-back %v: got %+v, want %+v", rep, wb, got[wb], want[wb])
			}
		}
		if got[true].msPerQuery >= got[false].msPerQuery {
			t.Errorf("repeat %d: write-back %v ms/query, not below write-through's %v",
				rep, got[true].msPerQuery, got[false].msPerQuery)
		}
	}
}

// TestShardedWritesStepped pins the write path on one and two shards:
// one session of the mix, write-through, insert bursts drawn inside a
// random shard's slab. The write-heavy run overflows the hot cells, so
// its costs also pin where each shard's overflow pool lies. Chunking at
// 512 cells splits none of the mix's queries, so that row equals the
// unchunked one. msPerCell spreads the session's simulated time over
// its useful cells, the bridged padding excluded.
func TestShardedWritesStepped(t *testing.T) {
	type row struct {
		ops                       int
		chunk                     int64
		writes                    float64
		shards                    int
		msPerCell, msPerQuery     float64
		hitRate                   float64
		issued, written, invalBlk int64
	}
	for _, w := range []row{
		{32, 0, 0.3, 1, 1.4752337648605038, 26.692510932944742, 0.0784313725490196, 260, 72, 1},
		{32, 0, 0.3, 2, 1.1807580174927137, 21.548833819242024, 0.06417112299465241, 223, 48, 0},
		{32, 512, 0.3, 1, 1.4752337648605038, 26.692510932944742, 0.0784313725490196, 260, 72, 1},
		{32, 512, 0.3, 2, 1.1807580174927137, 21.548833819242024, 0.06417112299465241, 223, 48, 0},
		{128, 0, 0.9, 1, 14.421172995378404, 46.98147764900621, 0.056338028169014086, 1115, 914, 1},
		{128, 0, 0.9, 2, 17.736045587065888, 45.72574252915424, 0.014285714285714285, 1087, 949, 0},
	} {
		r := steppedMix(t, 1, w.ops, w.writes, 5, WithShards(w.shards), WithChunkCells(w.chunk))
		checkAttribution(t, r)
		tot := r.metrics.Totals
		got := w
		got.msPerCell, got.msPerQuery, got.hitRate = r.sum.MsPerCell(), r.msPerQuery(), r.metrics.CacheHitRate
		got.issued, got.written, got.invalBlk = tot.IssuedRequests, r.sum.Writes, tot.InvalidatedBlocks
		if got != w {
			t.Errorf("%d ops, chunk %d, writes %v, %d shards:\n got %+v\nwant %+v", w.ops, w.chunk, w.writes, w.shards, got, w)
		}
		for i, sh := range r.metrics.Shards {
			if sh.Totals.WriteOps == 0 {
				t.Errorf("%d ops, %d shards: shard %d served no writes", w.ops, w.shards, i)
			}
		}
	}
}

package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

// TestRouterInvariants pins the partition contract: cuts cover the
// grid, interior cuts are aligned, slabs are non-empty, ShardOf agrees
// with the slabs, and SplitBox partitions any box without losing or
// duplicating cells.
func TestRouterInvariants(t *testing.T) {
	for _, tc := range []struct {
		dims   []int
		shards int
		align  int
	}{
		{[]int{40, 12, 8}, 1, 10},
		{[]int{40, 12, 8}, 2, 10},
		{[]int{40, 12, 8}, 4, 10},
		{[]int{41, 12, 8}, 3, 10}, // ragged: 5 quanta over 3 shards
		{[]int{7, 5}, 7, 1},
	} {
		r, err := NewRouter(tc.dims, tc.shards, tc.align)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if r.NumShards() != tc.shards {
			t.Fatalf("%+v: NumShards=%d", tc, r.NumShards())
		}
		prevHi := 0
		for i := 0; i < tc.shards; i++ {
			lo, hi := r.Slab(i)
			if lo != prevHi || hi <= lo {
				t.Fatalf("%+v: slab %d = [%d,%d) after %d", tc, i, lo, hi, prevHi)
			}
			if i > 0 && lo%tc.align != 0 {
				t.Fatalf("%+v: cut %d at %d not aligned to %d", tc, i, lo, tc.align)
			}
			if ld := r.LocalDims(i); ld[0] != hi-lo {
				t.Fatalf("%+v: LocalDims(%d)=%v for slab [%d,%d)", tc, i, ld, lo, hi)
			}
			prevHi = hi
		}
		if prevHi != tc.dims[0] {
			t.Fatalf("%+v: slabs end at %d, want %d", tc, prevHi, tc.dims[0])
		}
		cell := make([]int, len(tc.dims))
		for x := 0; x < tc.dims[0]; x++ {
			cell[0] = x
			si, err := r.ShardOf(cell)
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := r.Slab(si)
			if x < lo || x >= hi {
				t.Fatalf("%+v: ShardOf(%d)=%d but slab is [%d,%d)", tc, x, si, lo, hi)
			}
			if lc := r.Localize(si, cell); lc[0] != x-lo {
				t.Fatalf("%+v: Localize(%d,%d)=%v", tc, si, x, lc)
			}
		}
		// SplitBox partitions every Dim0 interval exactly.
		lo := make([]int, len(tc.dims))
		hi := append([]int(nil), tc.dims...)
		for a := 0; a < tc.dims[0]; a++ {
			for b := a + 1; b <= tc.dims[0]; b++ {
				lo[0], hi[0] = a, b
				total := 0
				prevShard := -1
				for _, p := range r.SplitBox(lo, hi) {
					if p.Shard <= prevShard {
						t.Fatalf("parts out of shard order")
					}
					prevShard = p.Shard
					slo, _ := r.Slab(p.Shard)
					if p.Lo[0]+slo < a || p.Hi[0]+slo > b {
						t.Fatalf("part %+v outside box [%d,%d)", p, a, b)
					}
					total += p.Hi[0] - p.Lo[0]
				}
				if total != b-a {
					t.Fatalf("box [%d,%d) split into %d Dim0 cells", a, b, total)
				}
			}
		}
	}
}

func TestRouterRejects(t *testing.T) {
	if _, err := NewRouter([]int{10, 4}, 3, 5); err == nil {
		t.Error("3 shards over 2 quanta accepted")
	}
	if _, err := NewRouter([]int{10, 4}, 0, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewRouter([]int{10, 4}, 2, 0); err == nil {
		t.Error("zero alignment accepted")
	}
	if _, err := NewRouter([]int{0, 4}, 1, 1); err == nil {
		t.Error("empty dimension accepted")
	}
	if _, err := NewRouter(nil, 1, 1); err == nil {
		t.Error("no dimensions accepted")
	}
	r, err := NewRouter([]int{10, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ShardOf([]int{10, 0}); err == nil {
		t.Error("out-of-range cell routed")
	}
	if _, err := r.ShardOf([]int{0}); err == nil {
		t.Error("arity mismatch routed")
	}
}

func testGroup(t testing.TB, kind mapping.Kind, dims []int, shards int, cacheBlocks int64) (*Group, func()) {
	t.Helper()
	svcs := make([]*engine.Service, shards)
	for i := range svcs {
		v, err := lvm.New(16, disk.MediumTestDisk())
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = engine.NewService(v, engine.ServiceOptions{CacheBlocks: cacheBlocks})
	}
	g, err := Build(svcs, kind, dims, mapping.Options{DiskIdx: 0}, query.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return g, func() {
		for _, svc := range svcs {
			svc.Close()
		}
	}
}

// TestSingleShardMatchesDirectExecutor: a 1-shard scatter-gather
// session must reproduce a plain executor's Stats bit for bit,
// for every mapping — the shard layer's equivalence guarantee
// (cmd/fig6probe's golden test checks the same property at Fig-6
// scale).
func TestSingleShardMatchesDirectExecutor(t *testing.T) {
	dims := []int{40, 12, 8}
	for _, kind := range mapping.Kinds() {
		g, closeAll := testGroup(t, kind, dims, 1, 0)
		vd, err := lvm.New(16, disk.MediumTestDisk())
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.New(kind, vd, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		direct := query.NewExecutor(vd, m)

		ss := g.Begin(engine.SessionOptions{})
		gotB, err := ss.Beam(context.Background(), 2, []int{7, 3, 0})
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := direct.Beam(2, []int{7, 3, 0})
		if err != nil {
			t.Fatal(err)
		}
		if gotB != wantB {
			t.Errorf("%v: shard beam %+v != direct %+v", kind, gotB, wantB)
		}
		gotR, err := ss.Box(context.Background(), []int{1, 1, 1}, []int{20, 9, 5})
		if err != nil {
			t.Fatal(err)
		}
		wantR, err := direct.Range([]int{1, 1, 1}, []int{20, 9, 5})
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR {
			t.Errorf("%v: shard range %+v != direct %+v", kind, gotR, wantR)
		}
		closeAll()
	}
}

// TestScatterGatherCells: on a multi-shard group every query must still
// credit exactly its cells, whether it lands on one shard or spans
// several, and the slab math must route beams to the right member.
func TestScatterGatherCells(t *testing.T) {
	dims := []int{40, 12, 8}
	for _, shards := range []int{2, 4} {
		g, closeAll := testGroup(t, mapping.MultiMap, dims, shards, 0)
		ss := g.Begin(engine.SessionOptions{})
		// Dim0 beam: spans every shard.
		st, err := ss.Beam(context.Background(), 0, []int{0, 5, 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells != int64(dims[0]) {
			t.Fatalf("%d shards: Dim0 beam fetched %d cells, want %d", shards, st.Cells, dims[0])
		}
		// Dim1 beam: lands on exactly one shard.
		st, err = ss.Beam(context.Background(), 1, []int{33, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells != int64(dims[1]) {
			t.Fatalf("%d shards: Dim1 beam fetched %d cells, want %d", shards, st.Cells, dims[1])
		}
		si, err := g.Router().ShardOf([]int{33, 0, 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			tot := g.Member(i).Svc.Totals()
			if (tot.Batches > 1) != (i == si) { // every shard served 1 batch for the Dim0 beam
				t.Fatalf("%d shards: shard %d batches=%d, Dim1 beam owner is %d",
					shards, i, tot.Batches, si)
			}
		}
		// A box spanning all shards.
		st, err = ss.Box(context.Background(), []int{0, 0, 0}, []int{40, 3, 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells != 40*3*2 {
			t.Fatalf("%d shards: box fetched %d cells, want %d", shards, st.Cells, 40*3*2)
		}
		// Bad boxes are rejected, not clamped.
		if _, err := ss.Box(context.Background(), []int{0, 0, 0}, []int{41, 3, 2}); err == nil {
			t.Fatal("out-of-range Dim0 box accepted")
		}
		if _, err := ss.Box(context.Background(), []int{0, 0}, []int{10, 3}); err == nil {
			t.Fatal("arity mismatch accepted")
		}
		closeAll()
	}
}

// TestScatterGatherAttributionSum is the acceptance property under
// -race: concurrent scatter-gather sessions running mixed reads and
// writes across shards; the merged per-session Stats must sum to the
// sum of the per-shard ServiceTotals.Attributed.
func TestScatterGatherAttributionSum(t *testing.T) {
	dims := []int{40, 12, 8}
	g, closeAll := testGroup(t, mapping.MultiMap, dims, 3, 4096)
	defer closeAll()

	const clients = 6
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions[i] = g.Begin(engine.SessionOptions{MaxInflight: 1 + i%2})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + i)))
			for q := 0; q < 10; q++ {
				switch rng.Intn(4) {
				case 0: // write to a random cell's shard
					cell := []int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])}
					si, err := g.Router().ShardOf(cell)
					if err != nil {
						errs[i] = err
						return
					}
					_, vlbn, err := g.CellVLBN(cell)
					if err != nil {
						errs[i] = err
						return
					}
					if _, err := sessions[i].Member(si).Write(context.Background(),
						[]lvm.Request{{VLBN: vlbn, Count: 1}}, disk.SchedSPTF); err != nil {
						errs[i] = err
						return
					}
				case 1:
					dim := rng.Intn(3)
					fixed := []int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])}
					st, err := sessions[i].Beam(context.Background(), dim, fixed)
					if err != nil {
						errs[i] = err
						return
					}
					if st.Cells != int64(dims[dim]) {
						errs[i] = fmt.Errorf("beam fetched %d cells, want %d", st.Cells, dims[dim])
						return
					}
				default:
					lo := []int{rng.Intn(30), rng.Intn(6), rng.Intn(4)}
					hi := []int{lo[0] + 1 + rng.Intn(10), lo[1] + 1 + rng.Intn(4), lo[2] + 1 + rng.Intn(3)}
					want := int64(hi[0]-lo[0]) * int64(hi[1]-lo[1]) * int64(hi[2]-lo[2])
					st, err := sessions[i].Box(context.Background(), lo, hi)
					if err != nil {
						errs[i] = err
						return
					}
					if st.Cells != want {
						errs[i] = fmt.Errorf("box fetched %d cells, want %d", st.Cells, want)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	var sum engine.Stats
	for _, s := range sessions {
		sum.Accumulate(s.Totals())
	}
	var attr engine.Stats
	served := 0
	for _, tot := range g.ServiceTotals() {
		attr.Accumulate(tot.Attributed)
		if tot.Batches > 0 {
			served++
		}
	}
	if served != g.NumShards() {
		t.Fatalf("only %d of %d shards served work", served, g.NumShards())
	}
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests || sum.Padding != attr.Padding ||
		sum.CacheHits != attr.CacheHits || sum.CacheMisses != attr.CacheMisses ||
		sum.Writes != attr.Writes || sum.InvalidatedBlocks != attr.InvalidatedBlocks {
		t.Fatalf("session sums %+v != per-shard attributed sums %+v", sum, attr)
	}
	if diff := math.Abs(sum.TotalMs - attr.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g: %v vs %v", diff, sum.TotalMs, attr.TotalMs)
	}
	if sum.TotalMs <= 0 || sum.Writes == 0 {
		t.Fatalf("workload served nothing: %+v", sum)
	}
}

// BenchmarkScatterGather measures the same client workload at 1, 2,
// and 4 shards: each op is one Dim0-spanning range query per client,
// so higher shard counts split the work across more service loops
// (true CPU parallelism on multi-core hosts).
func BenchmarkScatterGather(b *testing.B) {
	dims := []int{64, 24, 16}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g, closeAll := testGroup(b, mapping.MultiMap, dims, shards, 0)
			defer closeAll()
			const clients = 4
			sessions := make([]*Session, clients)
			for i := range sessions {
				sessions[i] = g.Begin(engine.SessionOptions{})
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < clients; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						lo := []int{0, (i * 3) % dims[1], (i * 2) % dims[2]}
						hi := []int{dims[0], lo[1] + 3, lo[2] + 2}
						if _, err := sessions[i].Box(context.Background(), lo, hi); err != nil {
							b.Error(err)
						}
					}(i)
				}
				wg.Wait()
			}
		})
	}
}

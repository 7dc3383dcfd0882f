package shard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
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
			lo, hi := r.cuts[i], r.cuts[i+1]
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
			lo, hi := r.cuts[si], r.cuts[si+1]
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
					slo := r.cuts[p.Shard]
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

func testGroup(t testing.TB, kind mapping.Kind, dims []int, shards int, opts engine.ServiceOptions) (*Group, func()) {
	t.Helper()
	return testGroupExec(t, kind, dims, shards, opts, query.ExecOptions{})
}

// testGroupExec is testGroup with the members' executor options.
func testGroupExec(t testing.TB, kind mapping.Kind, dims []int, shards int, opts engine.ServiceOptions, exec query.ExecOptions) (*Group, func()) {
	t.Helper()
	svcs := make([]*engine.Service, shards)
	for i := range svcs {
		v, err := lvm.New(16, disk.MediumTestDisk())
		if err != nil {
			t.Fatal(err)
		}
		svcs[i] = engine.NewService(v, opts)
	}
	g, err := Build(svcs, kind, dims, mapping.Options{DiskIdx: 0}, exec)
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
// session must reproduce a plain executor's Stats bit for bit, for
// every mapping — the shard layer's equivalence guarantee — on one beam
// and one box on a small grid.
func TestSingleShardMatchesDirectExecutor(t *testing.T) {
	matchDirect(t, disk.MediumTestDisk, 16, []int{40, 12, 8},
		func(t *testing.T, v *lvm.Volume, beam beamFunc, box boxFunc) []engine.Stats {
			return []engine.Stats{
				must(t)(beam(2, []int{7, 3, 0})),
				must(t)(box([]int{1, 1, 1}, []int{20, 9, 5})),
			}
		})
}

// TestSingleShardMatchesDirectExecutorFig6 holds the same guarantee for
// Fig. 6's query list on the 64³ grid on atlas10k3: 3 beams per
// dimension (seed dim·1000+3), then one box at each of 0.01/1/10/40/100 %
// selectivity, each query after a seeded RandomizePosition.
// RandomizePosition advances the disk clock, so rotational phase depends
// on history: each side replays the whole list on its own fresh volume
// from the same seeds.
func TestSingleShardMatchesDirectExecutorFig6(t *testing.T) {
	matchDirect(t, disk.AtlasTenKIII, 0, []int{64, 64, 64},
		func(t *testing.T, v *lvm.Volume, beam beamFunc, box boxFunc) []engine.Stats {
			grid, err := dataset.NewGrid(64, 64, 64)
			if err != nil {
				t.Fatal(err)
			}
			var out []engine.Stats
			for dim := 0; dim < 3; dim++ {
				rng := rand.New(rand.NewSource(int64(dim)*1000 + 3))
				for r := 0; r < 3; r++ {
					v.Disk(0).RandomizePosition(rng)
					fixed, err := grid.RandomBeam(rng, dim)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, must(t)(beam(dim, fixed)))
				}
			}
			for _, sel := range []float64{0.01, 1, 10, 40, 100} {
				rng := rand.New(rand.NewSource(int64(sel*1000) + 7919))
				v.Disk(0).RandomizePosition(rng)
				lo, hi, err := grid.RandomRange(rng, sel/100)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, must(t)(box(lo, hi)))
			}
			return out
		})
}

// matchDirect runs one query list, for every mapping, through a plain
// executor and through a 1-shard session, each on its own fresh volume
// of the given geometry, and compares the Stats query by query.
func matchDirect(t *testing.T, geom func() *disk.Geometry, depth int, dims []int,
	run func(*testing.T, *lvm.Volume, beamFunc, boxFunc) []engine.Stats) {
	t.Helper()
	newVolume := func() *lvm.Volume {
		v, err := lvm.New(depth, geom())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, kind := range mapping.Kinds() {
		vd := newVolume()
		m, err := mapping.New(kind, vd, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		direct := query.NewExecutor(vd, m)
		want := run(t, vd, direct.Beam, direct.Range)

		svc := engine.NewService(newVolume(), engine.ServiceOptions{})
		g, err := Build([]*engine.Service{svc}, kind, dims, mapping.Options{DiskIdx: 0}, query.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ss := g.Begin(engine.SessionOptions{})
		got := run(t, svc.Volume(),
			func(dim int, fixed []int) (engine.Stats, error) { return beam(context.Background(), ss, dim, fixed) },
			func(lo, hi []int) (engine.Stats, error) { return ss.Box(context.Background(), lo, hi, nil) })
		svc.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v query %d: shard %+v != direct %+v", kind, i, got[i], want[i])
			}
		}
	}
}

type (
	beamFunc func(dim int, fixed []int) (engine.Stats, error)
	boxFunc  func(lo, hi []int) (engine.Stats, error)
)

// beam runs the paper's beam query on a scatter-gather session as the
// box query.BeamBox builds, as the public Session does.
func beam(ctx context.Context, ss *Session, dim int, fixed []int) (engine.Stats, error) {
	lo, hi, err := query.BeamBox(ss.g.r.dims, dim, fixed)
	if err != nil {
		return engine.Stats{}, err
	}
	return ss.Box(ctx, lo, hi, nil)
}

// must returns a query's Stats, failing the test on its error.
func must(t *testing.T) func(engine.Stats, error) engine.Stats {
	return func(st engine.Stats, err error) engine.Stats {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
}

// TestScatterGatherCells: on a multi-shard group every query must still
// credit exactly its cells, whether it lands on one shard or spans
// several, and the slab math must route beams to the right member.
func TestScatterGatherCells(t *testing.T) {
	dims := []int{40, 12, 8}
	for _, shards := range []int{2, 4} {
		g, closeAll := testGroup(t, mapping.MultiMap, dims, shards, engine.ServiceOptions{})
		ss := g.Begin(engine.SessionOptions{})
		// Dim0 beam: spans every shard.
		st, err := beam(context.Background(), ss, 0, []int{0, 5, 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells != int64(dims[0]) {
			t.Fatalf("%d shards: Dim0 beam fetched %d cells, want %d", shards, st.Cells, dims[0])
		}
		// Dim1 beam: lands on exactly one shard.
		st, err = beam(context.Background(), ss, 1, []int{33, 0, 1})
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
		st, err = ss.Box(context.Background(), []int{0, 0, 0}, []int{40, 3, 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells != 40*3*2 {
			t.Fatalf("%d shards: box fetched %d cells, want %d", shards, st.Cells, 40*3*2)
		}
		// Bad boxes are rejected, not clamped.
		if _, err := ss.Box(context.Background(), []int{0, 0, 0}, []int{41, 3, 2}, nil); err == nil {
			t.Fatal("out-of-range Dim0 box accepted")
		}
		if _, err := ss.Box(context.Background(), []int{0, 0}, []int{10, 3}, nil); err == nil {
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
	g, closeAll := testGroup(t, mapping.MultiMap, dims, 3, engine.ServiceOptions{CacheBlocks: 4096})
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
					st, err := beam(context.Background(), sessions[i], dim, fixed)
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
					st, err := sessions[i].Box(context.Background(), lo, hi, nil)
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
			g, closeAll := testGroup(b, mapping.MultiMap, dims, shards, engine.ServiceOptions{})
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
						if _, err := sessions[i].Box(context.Background(), lo, hi, nil); err != nil {
							b.Error(err)
						}
					}(i)
				}
				wg.Wait()
			}
		})
	}
}

// eachCell calls fn on every cell of the box [lo, hi), Dim0 slowest.
func eachCell(lo, hi []int, fn func(cell []int)) {
	cell := append([]int(nil), lo...)
	for {
		fn(cell)
		i := len(cell) - 1
		for ; i >= 0; i-- {
			if cell[i]++; cell[i] < hi[i] {
				break
			}
			cell[i] = lo[i]
		}
		if i < 0 {
			return
		}
	}
}

// FuzzSplitBox holds Router.SplitBox to ShardOf applied cell by cell.
// The input picks a grid of one to three dimensions (Dim0 up to 64
// cells, the others up to 8), a shard count up to 8, an alignment up to
// 16 and a non-empty box inside the grid. The parts must come in shard
// order, each non-empty and inside its shard's slab, and together they
// must hold every cell of the box exactly once — in the part of the
// shard ShardOf names — and no cell outside it.
func FuzzSplitBox(f *testing.F) {
	f.Add([]byte{2, 39, 11, 7, 3, 9, 3, 1, 2, 30, 5, 4})
	f.Add([]byte{1, 6, 4, 0, 6, 0, 0, 0, 0, 6, 3, 0})
	f.Add([]byte{0, 63, 0, 0, 7, 15, 17, 0, 0, 40, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		at := func(i int) int {
			if i < len(in) {
				return int(in[i])
			}
			return 0
		}
		dims := make([]int, 1+at(0)%3)
		dims[0] = 1 + at(1)%64
		for i := 1; i < len(dims); i++ {
			dims[i] = 1 + at(1+i)%8
		}
		r, err := NewRouter(dims, 1+at(4)%8, 1+at(5)%16)
		if err != nil {
			return // fewer aligned slab quanta than shards: TestRouterRejects
		}
		lo, hi := make([]int, len(dims)), make([]int, len(dims))
		for i, d := range dims {
			lo[i] = at(6+i) % d
			hi[i] = lo[i] + 1 + at(9+i)%(d-lo[i])
		}

		// index numbers the grid's cells; owner records which part
		// holds each, count how many.
		index := func(cell []int) int {
			k := 0
			for i, c := range cell {
				k = k*dims[i] + c
			}
			return k
		}
		size := 1
		for _, d := range dims {
			size *= d
		}
		count, owner := make([]int, size), make([]int, size)
		prev := -1
		for _, p := range r.SplitBox(lo, hi) {
			slo, shi := r.cuts[p.Shard], r.cuts[p.Shard+1]
			if p.Shard <= prev || p.Lo[0] < 0 || p.Lo[0] >= p.Hi[0] || p.Hi[0] > shi-slo {
				t.Fatalf("box %v–%v: part %+v out of order or outside slab [%d,%d)", lo, hi, p, slo, shi)
			}
			prev = p.Shard
			glo, ghi := slices.Clone(p.Lo), slices.Clone(p.Hi)
			glo[0], ghi[0] = glo[0]+slo, ghi[0]+slo
			eachCell(glo, ghi, func(cell []int) {
				count[index(cell)]++
				owner[index(cell)] = p.Shard
			})
		}
		eachCell(make([]int, len(dims)), dims, func(cell []int) {
			inBox := true
			for i, c := range cell {
				inBox = inBox && c >= lo[i] && c < hi[i]
			}
			k := index(cell)
			switch {
			case !inBox && count[k] != 0:
				t.Fatalf("box %v–%v: cell %v outside it split into %d parts", lo, hi, cell, count[k])
			case inBox && count[k] != 1:
				t.Fatalf("box %v–%v: cell %v in %d parts, want 1", lo, hi, cell, count[k])
			case inBox:
				if si, err := r.ShardOf(cell); err != nil || si != owner[k] {
					t.Fatalf("box %v–%v: cell %v in shard %d's part, ShardOf says %d (%v)", lo, hi, cell, owner[k], si, err)
				}
			}
		})
	})
}

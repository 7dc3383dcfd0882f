package multimap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

func TestOpenVolume(t *testing.T) {
	v, err := OpenVolume(AtlasTenKIII, CheetahThirtySixES)
	if err != nil {
		t.Fatal(err)
	}
	if v.svc.Volume().NumDisks() != 2 {
		t.Errorf("NumDisks=%d", v.svc.Volume().NumDisks())
	}
	if v.AdjacencyDepth() != 128 {
		t.Errorf("D=%d, want the paper's 128", v.AdjacencyDepth())
	}
	if v.svc.Volume().TotalBlocks() <= 0 {
		t.Error("empty volume")
	}
	if _, err := OpenVolume(); err == nil {
		t.Error("no disks accepted")
	}
	if _, err := OpenVolume("nonsense"); err == nil {
		t.Error("bad model accepted")
	}
}

func TestVolumeAdjacencyInterface(t *testing.T) {
	v, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	adjs, err := v.GetAdjacent(1000, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(adjs) != 128 {
		t.Fatalf("got %d adjacent blocks, want 128", len(adjs))
	}
}

func TestStoreQueries(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Mappings() {
		s, err := Open(v, kind, []int{40, 12, 8})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if s.Mapping() != kind {
			t.Errorf("Mapping()=%v, want %v", s.Mapping(), kind)
		}
		st, err := s.Beam(context.Background(), 1, []int{5, 0, 3})
		if err != nil {
			t.Fatalf("%v beam: %v", kind, err)
		}
		if st.Cells != 12 {
			t.Errorf("%v: beam fetched %d cells, want 12", kind, st.Cells)
		}
		st, err = s.RangeQuery(context.Background(), []int{0, 0, 0}, []int{10, 4, 2})
		if err != nil {
			t.Fatalf("%v range: %v", kind, err)
		}
		if st.Cells != 80 {
			t.Errorf("%v: range fetched %d cells, want 80", kind, st.Cells)
		}
		if _, err := s.CellLBN([]int{0, 0, 0}); err != nil {
			t.Errorf("%v: CellLBN: %v", kind, err)
		}
	}
	if _, err := Open(v, MultiMap, []int{40, 12, 8}, WithCapacity(1<<20)); err == nil {
		t.Error("pool-only WithCapacity accepted by plain Open")
	}
	if _, err := Open(v, MultiMap, []int{40, 12, 8}, WithDrives(0)); err == nil {
		t.Error("pool-only WithDrives accepted by plain Open")
	}
	if _, err := Open(v, MultiMap, []int{40, 12, 8}, WithChunkCells(-1)); err == nil {
		t.Error("negative PlanChunkCells accepted")
	}
}

// TestStoreMatchesDirectExecutor: the store's service path (one
// session, cache off) must reproduce a plain executor's Stats bit for
// bit — the refactor's equivalence guarantee at the API level.
func TestStoreMatchesDirectExecutor(t *testing.T) {
	dims := []int{40, 12, 8}
	for _, kind := range Mappings() {
		vs, err := OpenVolumeDepth(32, MediumTestDisk)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(vs, kind, dims)
		if err != nil {
			t.Fatal(err)
		}
		vd, err := lvm.New(32, mustGeom(t))
		if err != nil {
			t.Fatal(err)
		}
		m, err := mapping.New(kind, vd, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		direct := query.NewExecutor(vd, m)

		gotB, err := s.Beam(context.Background(), 2, []int{7, 3, 0})
		if err != nil {
			t.Fatal(err)
		}
		wantB, err := direct.Beam(2, []int{7, 3, 0})
		if err != nil {
			t.Fatal(err)
		}
		if gotB != wantB {
			t.Errorf("%v: store beam %+v != direct executor %+v", kind, gotB, wantB)
		}
		gotR, err := s.RangeQuery(context.Background(), []int{1, 1, 1}, []int{20, 9, 5})
		if err != nil {
			t.Fatal(err)
		}
		wantR, err := direct.Range([]int{1, 1, 1}, []int{20, 9, 5})
		if err != nil {
			t.Fatal(err)
		}
		if gotR != wantR {
			t.Errorf("%v: store range %+v != direct executor %+v", kind, gotR, wantR)
		}
		vs.Close()
	}
}

func mustGeom(t *testing.T) *disk.Geometry {
	t.Helper()
	g, err := disk.ModelByName(string(MediumTestDisk))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestConcurrentStoreSessions is the serving-layer race test: several
// goroutines issue mixed beam and range queries through their own
// sessions of two stores on one volume (run with -race). Every query
// must be credited exactly its cells, and the per-session totals must
// sum to the service loop's attributed totals.
func TestConcurrentStoreSessions(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	dims := []int{40, 12, 8}
	mm, err := Open(v, MultiMap, dims, WithCache(4096), WithMaxInflight(2))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Open(v, Hilbert, dims)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 6
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		st := mm
		if i%2 == 1 {
			st = hb
		}
		sessions[i] = st.Begin()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(31 + i)))
			for q := 0; q < 8; q++ {
				if rng.Intn(2) == 0 {
					dim := rng.Intn(3)
					fixed := []int{rng.Intn(40), rng.Intn(12), rng.Intn(8)}
					st, err := sessions[i].Beam(context.Background(), dim, fixed)
					if err != nil {
						errs[i] = err
						return
					}
					if st.Cells != int64(dims[dim]) {
						errs[i] = errWrongCells(st.Cells, int64(dims[dim]))
						return
					}
				} else {
					lo := []int{rng.Intn(20), rng.Intn(6), rng.Intn(4)}
					hi := []int{lo[0] + 1 + rng.Intn(10), lo[1] + 1 + rng.Intn(4), lo[2] + 1 + rng.Intn(3)}
					want := int64(hi[0]-lo[0]) * int64(hi[1]-lo[1]) * int64(hi[2]-lo[2])
					st, err := sessions[i].RangeQuery(context.Background(), lo, hi)
					if err != nil {
						errs[i] = err
						return
					}
					if st.Cells != want {
						errs[i] = errWrongCells(st.Cells, want)
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

	var sum Stats
	for _, s := range sessions {
		sum.Accumulate(s.Stats())
	}
	tot := v.ServiceTotals()
	if tot.Batches == 0 {
		t.Fatal("service loop served nothing")
	}
	// Sessions observe per-chunk elapsed, the loop per-batch; every
	// other field must match to attribution precision.
	if sum.Cells != tot.Attributed.Cells || sum.Requests != tot.Attributed.Requests ||
		sum.Padding != tot.Attributed.Padding ||
		sum.CacheHits != tot.Attributed.CacheHits || sum.CacheMisses != tot.Attributed.CacheMisses {
		t.Fatalf("session sums %+v != service totals %+v", sum, tot.Attributed)
	}
	if diff := math.Abs(sum.TotalMs - tot.Attributed.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g: %v vs %v", diff, sum.TotalMs, tot.Attributed.TotalMs)
	}
}

// TestFailedOpenLeavesServiceUnconfigured: an Open that fails —
// here, an overflow area larger than the volume leaves room for — must
// not leave its service-level options behind. The next plain Open on
// the volume reads a repeated beam from the disks, not from the failed
// Open's cache.
func TestFailedOpenLeavesServiceUnconfigured(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	dims := []int{30, 8, 5}
	if _, err := Open(v, MultiMap, dims, WithCache(4096),
		Updatable(UpdateOptions{OverflowBlocks: v.svc.Volume().TotalBlocks() - 100})); err == nil {
		t.Fatal("an overflow area of the whole volume opened")
	}
	s, err := Open(v, MultiMap, dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, err := s.Beam(context.Background(), 1, []int{3, 0, 2})
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits != 0 || st.TotalMs <= 0 {
			t.Fatalf("beam %d served by the failed Open's cache: %+v", i, st)
		}
	}
}

// TestServiceOptionsConfigureOnce: service-level options configure a
// volume once, before it serves. A later Open naming one fails; a later
// Open naming none shares the first store's service, cache included.
func TestServiceOptionsConfigureOnce(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	dims := []int{30, 8, 5}
	a, err := Open(v, MultiMap, dims, WithCache(4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Beam(context.Background(), 1, []int{3, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v, MultiMap, dims, WithCache(8192)); err == nil {
		t.Fatal("a second Open reconfigured a used volume's cache")
	}
	b, err := Open(v, MultiMap, dims)
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.Beam(context.Background(), 1, []int{3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits == 0 || st.CacheMisses != 0 {
		t.Fatalf("second store does not share the first's cache: %+v", st)
	}
}

func errWrongCells(got, want int64) error {
	return fmt.Errorf("fetched %d cells, want %d", got, want)
}

func TestParseMappingAndModels(t *testing.T) {
	k, err := ParseMapping("multimap")
	if err != nil || k != MultiMap {
		t.Errorf("ParseMapping: %v %v", k, err)
	}
	if len(DiskModels()) < 4 {
		t.Error("missing disk models")
	}
	if len(Mappings()) != 4 {
		t.Error("paper compares four mappings")
	}
}

func TestAnalyticModelFacade(t *testing.T) {
	// Paper-scale chunk: at smaller scales Naive's Dim1 stride stays
	// within one track and genuinely wins, as the model correctly says.
	m, err := NewModel(AtlasTenKIII, []int{259, 259, 259})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BasicCube()) != 3 {
		t.Error("basic cube arity wrong")
	}
	nb, err := m.EstimateBeamMs(Naive, 1)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := m.EstimateBeamMs(MultiMap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mb >= nb {
		t.Errorf("model: MultiMap beam %.1f not better than Naive %.1f", mb, nb)
	}
	if _, err := m.EstimateBeamMs(Hilbert, 1); err == nil {
		t.Error("model should only cover Naive and MultiMap")
	}
	nr, err := m.EstimateRangeMs(Naive, []int{60, 60, 60})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := m.EstimateRangeMs(MultiMap, []int{60, 60, 60})
	if err != nil {
		t.Fatal(err)
	}
	if nr <= 0 || mr <= 0 {
		t.Error("non-positive estimates")
	}
	if _, err := m.EstimateRangeMs(ZOrder, []int{1, 1, 1}); err == nil {
		t.Error("model should only cover Naive and MultiMap")
	}
}

// TestWithDiskIdxDeclusters covers the public handle on §4.4: on a
// two-drive volume, WithDiskIdx(-1) spreads MultiMap's basic cubes over
// both drives, so they serve one box in parallel (elapsed < summed busy
// time); pinned to drive 0 the same box is served by one drive alone.
func TestWithDiskIdxDeclusters(t *testing.T) {
	dims := []int{64, 32, 16}
	query := func(idx int) Stats {
		t.Helper()
		v, err := OpenVolumeDepth(32, MediumTestDisk, MediumTestDisk)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(v, MultiMap, dims, WithDiskIdx(idx))
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.RangeQuery(context.Background(), []int{0, 0, 0}, dims)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := query(-1); st.ElapsedMs >= st.TotalMs {
		t.Errorf("declustered: elapsed %v ms not below busy %v ms", st.ElapsedMs, st.TotalMs)
	}
	// One drive: elapsed is its clock, busy the sum of per-request
	// costs — equal up to the order the floats were added in.
	if st := query(0); math.Abs(st.ElapsedMs-st.TotalMs) > 1e-9*st.TotalMs {
		t.Errorf("pinned to drive 0: elapsed %v ms != busy %v ms", st.ElapsedMs, st.TotalMs)
	}
	v, err := OpenVolumeDepth(32, MediumTestDisk, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(v, MultiMap, dims, WithDiskIdx(-2)); err == nil {
		t.Error("WithDiskIdx(-2) accepted")
	}
}

func TestRunExperimentFacade(t *testing.T) {
	cfg := ExperimentConfig{Disks: []DiskModel{AtlasTenKIII}, Scale: 0.15, Runs: 2, Seed: 5}
	for _, id := range []string{"fig1a", "fig1b"} {
		tb, err := RunExperiment(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 || !strings.Contains(tb.String(), id) {
			t.Errorf("%s: empty table", id)
		}
	}
	// Only the paper's figures are experiments; serving claims are tests.
	for _, id := range []string{"fig99", "serve"} {
		if _, err := RunExperiment(id, cfg); err == nil {
			t.Errorf("experiment %q accepted", id)
		}
	}
	if len(ExperimentIDs()) != 9 {
		t.Errorf("want the 9 paper experiment ids, got %v", ExperimentIDs())
	}
}

// TestShardedStoreEquivalenceAndScatter covers the public sharding
// knob: Shards=1 must reproduce the unsharded store bit for bit on the
// same workload, and Shards>1 must still credit every query its cells,
// fan queries out to the right shards, and keep the attribution-sum
// property across the per-shard service totals.
func TestShardedStoreEquivalenceAndScatter(t *testing.T) {
	dims := []int{40, 12, 8}
	queries := func(s *Store) []Stats {
		t.Helper()
		var out []Stats
		st, err := s.Beam(context.Background(), 0, []int{0, 5, 2})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
		st, err = s.Beam(context.Background(), 2, []int{33, 3, 0})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st)
		st, err = s.RangeQuery(context.Background(), []int{1, 1, 1}, []int{39, 9, 5})
		if err != nil {
			t.Fatal(err)
		}
		return append(out, st)
	}

	// Shards=1 vs unsharded on fresh identical volumes: bit-identical.
	vPlain, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(vPlain, MultiMap, dims)
	if err != nil {
		t.Fatal(err)
	}
	vOne, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Open(vOne, MultiMap, dims, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.NumShards() != 1 {
		t.Fatalf("Shards=1 store has %d shards", one.NumShards())
	}
	wantStats := queries(plain)
	gotStats := queries(one)
	for i := range wantStats {
		if gotStats[i] != wantStats[i] {
			t.Fatalf("query %d: Shards=1 stats %+v != unsharded %+v", i, gotStats[i], wantStats[i])
		}
	}

	// Shards=4: correct cells, scatter across shards, per-shard totals.
	v4, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	s4, err := Open(v4, MultiMap, dims, WithShards(4), WithCache(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if s4.NumShards() != 4 {
		t.Fatalf("Shards=4 store has %d shards", s4.NumShards())
	}
	got := queries(s4)
	for i, st := range got {
		if st.Cells == 0 {
			t.Fatalf("sharded query %d credited no cells", i)
		}
	}
	if got[0].Cells != int64(dims[0]) || got[1].Cells != int64(dims[2]) {
		t.Fatalf("sharded beams fetched %d/%d cells, want %d/%d",
			got[0].Cells, got[1].Cells, dims[0], dims[2])
	}
	// Cell routing is consistent between ShardOf and CellLBN.
	for _, cell := range [][]int{{0, 0, 0}, {13, 5, 2}, {39, 11, 7}} {
		si, err := s4.ShardOf(cell)
		if err != nil {
			t.Fatal(err)
		}
		if si < 0 || si >= 4 {
			t.Fatalf("ShardOf(%v)=%d", cell, si)
		}
		if _, err := s4.CellLBN(cell); err != nil {
			t.Fatalf("CellLBN(%v): %v", cell, err)
		}
	}
	// The Dim0 queries put work on every shard; session sums must equal
	// the per-shard attributed sums.
	shards := s4.Metrics().Shards
	if len(shards) != 4 {
		t.Fatalf("Metrics has %d shards", len(shards))
	}
	var attr Stats
	for i, sm := range shards {
		if sm.Totals.Batches == 0 {
			t.Fatalf("shard %d served nothing", i)
		}
		attr.Accumulate(sm.Totals.Attributed)
	}
	sum := s4.def.Stats()
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests ||
		sum.CacheHits != attr.CacheHits || sum.CacheMisses != attr.CacheMisses {
		t.Fatalf("session sums %+v != per-shard attributed %+v", sum, attr)
	}
	if diff := math.Abs(sum.TotalMs - attr.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g", diff)
	}

	// Store.Close kills the internal shard services (queries fail),
	// while the caller's volume survives.
	if st, err := s4.Beam(context.Background(), 0, []int{0, 0, 0}); err != nil || st.Cells != int64(dims[0]) {
		t.Fatalf("Dim0 beam before Close: %+v %v", st, err)
	}
	s4.Close()
	if _, err := s4.Beam(context.Background(), 0, []int{0, 0, 0}); err == nil {
		t.Fatal("Dim0 beam succeeded after Store.Close shut the shard services")
	}
	// The caller's volume is still usable by a fresh store.
	fresh, err := Open(v4, MultiMap, dims)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := fresh.Beam(context.Background(), 1, []int{5, 0, 3}); err != nil || st.Cells != int64(dims[1]) {
		t.Fatalf("caller volume unusable after Store.Close: %+v %v", st, err)
	}

	// Validation: negative shard counts and oversharding tiny grids.
	if _, err := Open(v4, MultiMap, dims, WithShards(-1)); err == nil {
		t.Error("negative Shards accepted")
	}
	if _, err := Open(v4, MultiMap, []int{2, 12, 8}, WithShards(4)); err == nil {
		t.Error("more shards than Dim0 cells accepted")
	}
}

// TestOpenRejectsHostileGrids: a grid whose cell count overflows int64
// or does not fit the volume is refused by every layout, unsharded and
// sharded, and by a pool, before anything sized by the count is built.
// {2^32, 2^32} wraps the count to 0, {2^21, 2^21, 2^21} to a negative,
// and {2^16, 2^16} fits int64 but not the drive. The volume still
// serves afterwards.
func TestOpenRejectsHostileGrids(t *testing.T) {
	v, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	p := testPool(t)
	for _, dims := range [][]int{{1 << 32, 1 << 32}, {1 << 21, 1 << 21, 1 << 21}, {1 << 16, 1 << 16}} {
		for _, kind := range []Mapping{Naive, ZOrder, Hilbert, Gray, MultiMap} {
			for _, shards := range []int{1, 2} {
				s, err := Open(v, kind, dims, WithShards(shards))
				if err == nil {
					s.Close()
				}
				if err == nil || !strings.Contains(err.Error(), "cells") {
					t.Errorf("%v %v over %d shards: %v, want an error naming the cells", kind, dims, shards, err)
				}
			}
			// A pool refuses what the sizing cannot count, or what it
			// cannot provision.
			if _, err := p.Create(context.Background(), "hostile", kind, dims); err == nil {
				t.Errorf("%v %v: pool tenant created", kind, dims)
			}
		}
	}
	s, err := Open(v, MultiMap, []int{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st, err := s.Beam(context.Background(), 1, []int{3, 0, 5}); err != nil || st.Cells != 16 {
		t.Fatalf("volume after the refused opens: %+v %v", st, err)
	}
}

// TestShardsBeyondDim0FailFirst: a shard count above the Dim0 length is
// refused by Open and Pool.Create before a volume is built for any
// shard. 100 000 shards once cost about 1.9 KiB each before the error.
func TestShardsBeyondDim0FailFirst(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	p := testPool(t)
	for name, open := range map[string]func() error{
		"Open": func() error {
			_, err := Open(v, MultiMap, []int{4, 4, 4}, WithShards(100_000))
			return err
		},
		"Pool.Create": func() error {
			_, err := p.Create(context.Background(), "wide", MultiMap, []int{4, 4, 4}, WithShards(100_000))
			return err
		},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := open()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "shards") {
			t.Fatalf("%s: 100000 shards over a Dim0 of 4: %v, want an error naming the shards", name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before refusing 100000 shards: %v", name, d, err)
		}
	}
}

// TestMetricsCountsQueries: Metrics().Queries counts every successful
// Beam, RangeQuery, RangeQueryStream and FetchCell, and not a range
// under an already-cancelled context or one whose box is out of range.
func TestMetricsCountsQueries(t *testing.T) {
	v, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	s, err := Open(v, MultiMap, []int{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess := s.Begin()
	lo, hi := []int{0, 0, 0}, []int{4, 4, 4}
	if m := s.Metrics(); m.Queries != 0 || m.LatencyP50Ms != 0 {
		t.Fatalf("fresh store: %d queries, p50 %v", m.Queries, m.LatencyP50Ms)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for i, q := range []struct {
		name string
		run  func() (Stats, error)
		ok   bool
	}{
		{"Beam", func() (Stats, error) { return sess.Beam(ctx, 1, []int{3, 0, 5}) }, true},
		{"RangeQuery", func() (Stats, error) { return sess.RangeQuery(ctx, lo, hi) }, true},
		{"RangeQueryStream", func() (Stats, error) { return sess.RangeQueryStream(ctx, lo, hi, func(RangeChunk) {}) }, true},
		{"FetchCell", func() (Stats, error) { return sess.FetchCell(ctx, []int{1, 2, 3}) }, true},
		{"cancelled RangeQuery", func() (Stats, error) { return sess.RangeQuery(cancelled, lo, hi) }, false},
		{"out-of-range RangeQuery", func() (Stats, error) { return sess.RangeQuery(ctx, lo, []int{4, 4, 17}) }, false},
	} {
		before := s.Metrics().Queries
		if _, err := q.run(); (err == nil) != q.ok {
			t.Fatalf("%s: err = %v, want success %v", q.name, err, q.ok)
		}
		want := before
		if q.ok {
			want++
		}
		if got := s.Metrics().Queries; got != want {
			t.Fatalf("op %d (%s): Queries %d, want %d", i, q.name, got, want)
		}
	}
	if got := s.Metrics().Queries; got != 4 {
		t.Fatalf("after four queries: Queries %d", got)
	}
}

// TestShardedConcurrentSessions is the -race exercise for the public
// scatter-gather path: concurrent sessions over a 2-shard store, mixed
// beams and ranges, then the attribution-sum check against the
// per-shard totals. The second arm is the concurrent run of the urgent
// front on the public Store: an updatable write-back store with
// WithFairShare at a quantum no pass's backlog reaches (nothing is
// deferred; deadlines alone reorder), where session 0 queries under
// 50 ms deadlines (urgent ops, some of which may expire), the others
// mix reads with insert bursts, and a closing Flush commits what is
// still dirty. The
// sum then also covers the write counters, and every drop a shard loop
// counted must have reached a session.
func TestShardedConcurrentSessions(t *testing.T) {
	for _, arm := range []struct {
		name  string
		opts  []Option
		mixed bool // a deadline session, insert bursts and a closing Flush
	}{
		{"read-only", nil, false},
		{"write-back-deadlines", []Option{Updatable(UpdateOptions{}), WithWriteBack(0, 0),
			WithFairShare(1 << 20)}, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			testShardedConcurrentSessions(t, arm.opts, arm.mixed)
		})
	}
}

func testShardedConcurrentSessions(t *testing.T, opts []Option, mixed bool) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{40, 12, 8}
	s, err := Open(v, MultiMap, dims, append([]Option{WithShards(2), WithCache(4096), WithMaxInflight(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// read runs one beam or range and checks its cells; a query that
	// expired returns its partial Stats and the context's error.
	read := func(ctx context.Context, sess *Session, rng *rand.Rand) error {
		if rng.Intn(2) == 0 {
			dim := rng.Intn(3)
			fixed := []int{rng.Intn(40), rng.Intn(12), rng.Intn(8)}
			st, err := sess.Beam(ctx, dim, fixed)
			if err == nil && st.Cells != int64(dims[dim]) {
				err = errWrongCells(st.Cells, int64(dims[dim]))
			}
			return err
		}
		lo := []int{rng.Intn(20), rng.Intn(6), rng.Intn(4)}
		hi := []int{lo[0] + 1 + rng.Intn(20), lo[1] + 1 + rng.Intn(4), lo[2] + 1 + rng.Intn(3)}
		want := int64(hi[0]-lo[0]) * int64(hi[1]-lo[1]) * int64(hi[2]-lo[2])
		st, err := sess.RangeQuery(ctx, lo, hi)
		if err == nil && st.Cells != want {
			err = errWrongCells(st.Cells, want)
		}
		return err
	}
	const clients = 4
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var expired int64 // session 0's queries that returned a context error
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions[i] = s.Begin()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + i)))
			for q := 0; q < 8; q++ {
				var err error
				switch {
				case mixed && i == 0:
					ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
					err = read(ctx, sessions[i], rng)
					cancel()
					if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
						expired, err = expired+1, nil
					}
				case mixed && rng.Intn(10) < 3:
					cell := []int{rng.Intn(40), rng.Intn(12), rng.Intn(8)}
					for k := 0; k < 8 && err == nil; k++ {
						_, err = sessions[i].Insert(context.Background(), cell)
					}
				default:
					err = read(context.Background(), sessions[i], rng)
				}
				if err != nil {
					errs[i] = err
					return
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
	if err := sessions[0].Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sum, attr Stats
	var tot ServiceTotals
	for _, sess := range sessions {
		sum.Accumulate(sess.Stats())
	}
	for _, sm := range s.Metrics().Shards {
		tot.Accumulate(sm.Totals)
	}
	attr = tot.Attributed
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests ||
		sum.CacheHits != attr.CacheHits || sum.CacheMisses != attr.CacheMisses ||
		sum.Writes != attr.Writes || sum.CoalescedWrites != attr.CoalescedWrites ||
		sum.FlushBatches != attr.FlushBatches {
		t.Fatalf("session sums %+v != per-shard attributed %+v", sum, attr)
	}
	if diff := math.Abs(sum.TotalMs - attr.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g", diff)
	}
	// A drop the loop made is priced to its session; a session also
	// counts what it dropped before submitting, which no loop saw. An
	// expired query counts at least one drop.
	if sum.Cancelled < tot.Cancelled || sum.DeadlineExceeded < tot.DeadlineExceeded {
		t.Fatalf("sessions counted %d cancelled, %d expired; the loops dropped %d and %d",
			sum.Cancelled, sum.DeadlineExceeded, tot.Cancelled, tot.DeadlineExceeded)
	}
	if st := sessions[0].Stats(); st.Cancelled+st.DeadlineExceeded < expired {
		t.Fatalf("session 0: %d queries expired, %d drops counted", expired, st.Cancelled+st.DeadlineExceeded)
	}
	if mixed && (sum.Writes == 0 || tot.FlushBatches == 0 || tot.DirtyBlocks != 0) {
		t.Fatalf("write-back arm: %d writes, %d group commits, %d blocks left dirty after Flush",
			sum.Writes, tot.FlushBatches, tot.DirtyBlocks)
	}
}

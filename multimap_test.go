package multimap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

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
	if v.NumDisks() != 2 {
		t.Errorf("NumDisks=%d", v.NumDisks())
	}
	if v.AdjacencyDepth() != 128 {
		t.Errorf("D=%d, want the paper's 128", v.AdjacencyDepth())
	}
	if v.TotalBlocks() <= 0 {
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
	start, next, err := v.GetTrackBoundaries(1000)
	if err != nil {
		t.Fatal(err)
	}
	if !(start <= 1000 && 1000 < next) {
		t.Fatalf("track boundaries [%d,%d) exclude the block", start, next)
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
	if _, err := Open(v, MultiMap, []int{40, 12, 8}, WithBatchWindow(-1)); err == nil {
		t.Error("negative BatchWindow accepted")
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

	// Reset under a live service must leave a clean volume behind.
	v.Reset()
	if tot := v.ServiceTotals(); tot.Batches != 0 {
		t.Fatalf("reset kept totals %+v", tot)
	}
	st, err := mm.Beam(context.Background(), 1, []int{5, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 12 || st.CacheHits != 0 {
		t.Fatalf("post-reset query wrong: %+v", st)
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
	// The burst rig keeps only this door: the CI harness-smoke config.
	burst := ExperimentConfig{Disks: []DiskModel{AtlasTenKIII}, Scale: 0.15, Seed: 1,
		Clients: 4, Queries: 6, CacheBlocks: 4194304, WriteFraction: 0.3,
		WriteBack: true, FairQuantum: 4096}
	tb, err := RunExperiment("burst", burst)
	if err != nil {
		t.Fatalf("burst: %v", err)
	}
	if len(tb.Rows) != 3 || !strings.Contains(tb.Title, "QoS quantum 4096") {
		t.Errorf("burst: want one row per class under QoS:\n%s", tb)
	}
	if _, err := RunExperiment("fig99", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentIDs()) != 12 {
		t.Errorf("want 12 experiment ids, got %v", ExperimentIDs())
	}
}

// TestRunTenants runs the multi-tenant churn benchmark small with QoS
// on and checks the result's invariants — every lifecycle phase once,
// in canonical order, with traffic; online growth and copy-on-write
// evidence; an ordered burst latency pair.
func TestRunTenants(t *testing.T) {
	cfg := ExperimentConfig{Disks: []DiskModel{AtlasTenKIII}, Scale: 0.05, Seed: 1,
		Clients: 2, Queries: 4, FairQuantum: 4096}
	tb, res, err := runTenants(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.Title, "QoS quantum 4096") {
		t.Fatalf("QoS mode not recorded: %s", tb.Title)
	}
	if res.GrownBlocks <= 0 {
		t.Errorf("grown blocks %d: the lifecycle must grow the tenant online", res.GrownBlocks)
	}
	if res.AutoGrownBlocks < 0 {
		t.Errorf("negative auto-grown blocks %d", res.AutoGrownBlocks)
	}
	if res.CowFaultBlocks <= 0 {
		t.Errorf("COW fault blocks %d: post-snapshot writes must fault", res.CowFaultBlocks)
	}
	if res.BurstOps < 1 {
		t.Error("no live burst traffic")
	}
	if res.BurstP50Ms < 0 || res.BurstP50Ms > res.BurstP99Ms {
		t.Errorf("burst latency out of order: p50=%v p99=%v", res.BurstP50Ms, res.BurstP99Ms)
	}
	if len(res.Phases) != len(tenantsPhases) {
		t.Fatalf("%d phases, want %d", len(res.Phases), len(tenantsPhases))
	}
	for i, ph := range res.Phases {
		if ph.Phase != tenantsPhases[i] {
			t.Errorf("phases[%d] is %q, want %q", i, ph.Phase, tenantsPhases[i])
		}
		if ph.Ops < 1 || ph.Ms < 0 {
			t.Errorf("phase %q: %d ops in %v ms", ph.Phase, ph.Ops, ph.Ms)
		}
	}
	// The hand-rolled range checks are gone: the shared validator runs.
	cfg.Scale = 2
	if _, _, err := runTenants(cfg); err == nil {
		t.Error("scale 2 accepted")
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

	// Store.Reset clears every shard; Store.Close kills the internal
	// shard services (queries fail), while the caller's volume survives.
	s4.Reset()
	for i, sm := range s4.Metrics().Shards {
		if sm.Totals.Batches != 0 {
			t.Fatalf("shard %d totals survived Reset: %+v", i, sm.Totals)
		}
	}
	if st, err := s4.Beam(context.Background(), 0, []int{0, 0, 0}); err != nil || st.Cells != int64(dims[0]) {
		t.Fatalf("post-Reset query wrong: %+v %v", st, err)
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

// TestShardedConcurrentSessions is the -race exercise for the public
// scatter-gather path: concurrent sessions over a 2-shard store, mixed
// beams and ranges, then the attribution-sum check against the
// per-shard totals.
func TestShardedConcurrentSessions(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{40, 12, 8}
	s, err := Open(v, MultiMap, dims, WithShards(2), WithCache(4096), WithMaxInflight(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 4
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions[i] = s.Begin()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + i)))
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
					hi := []int{lo[0] + 1 + rng.Intn(20), lo[1] + 1 + rng.Intn(4), lo[2] + 1 + rng.Intn(3)}
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
	var sum, attr Stats
	for _, sess := range sessions {
		sum.Accumulate(sess.Stats())
	}
	for _, sm := range s.Metrics().Shards {
		attr.Accumulate(sm.Totals.Attributed)
	}
	if sum.Cells != attr.Cells || sum.Requests != attr.Requests ||
		sum.CacheHits != attr.CacheHits || sum.CacheMisses != attr.CacheMisses {
		t.Fatalf("session sums %+v != per-shard attributed %+v", sum, attr)
	}
	if diff := math.Abs(sum.TotalMs - attr.TotalMs); diff > 1e-6*(1+sum.TotalMs) {
		t.Fatalf("attributed time drift %g", diff)
	}
}

func TestStoreMultiBlockCells(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(v, MultiMap, []int{12, 4, 3}, WithCellBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.CellBlocks() != 4 {
		t.Fatalf("CellBlocks=%d", s.CellBlocks())
	}
	st, err := s.Beam(context.Background(), 1, []int{3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 4 {
		t.Fatalf("beam fetched %d cells, want 4", st.Cells)
	}
}

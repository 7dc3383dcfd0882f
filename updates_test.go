package multimap

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

func newUpdatable(t *testing.T, opts UpdateOptions, extra ...Option) *Store {
	t.Helper()
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Open(v, MultiMap, []int{30, 8, 5}, append(extra, Updatable(opts))...)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUpdatableStoreDefaults(t *testing.T) {
	u := newUpdatable(t, UpdateOptions{})
	if _, err := u.LoadCell(context.Background(), []int{1, 2, 3}, 100); err != nil {
		t.Fatal(err)
	}
	n, err := u.Points([]int{1, 2, 3})
	if err != nil || n != 100 {
		t.Fatalf("Points=%d err=%v", n, err)
	}
	// 100 points at capacity 64, fill 0.75 (48/block) -> 3 blocks.
	cl, err := u.ChainLen([]int{1, 2, 3})
	if err != nil || cl != 3 {
		t.Fatalf("ChainLen=%d err=%v, want 3", cl, err)
	}
}

func TestUpdatableInsertOverflowDelete(t *testing.T) {
	u := newUpdatable(t, UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1), ReclaimBelow: Frac(0.3)})
	cell := []int{0, 0, 0}
	for i := 0; i < 10; i++ {
		if _, err := u.Insert(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
	}
	if cl, _ := u.ChainLen(cell); cl != 3 {
		t.Fatalf("ChainLen=%d, want 3 (10 points at 4/block)", cl)
	}
	st, err := u.FetchCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 3 {
		t.Fatalf("FetchCell read %d blocks, want 3", st.Cells)
	}
	// Deleting down to 2 points triggers reorganization (2/12 < 0.3).
	for i := 0; i < 8; i++ {
		if _, err := u.Delete(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
	}
	if u.Reorganizations() == 0 {
		t.Error("no reorganization after underflow")
	}
	if cl, _ := u.ChainLen(cell); cl != 1 {
		t.Errorf("chain not compacted: %d", cl)
	}
}

func TestUpdatableFetchCostGrowsWithChain(t *testing.T) {
	u := newUpdatable(t, UpdateOptions{PointsPerBlock: 2, FillFactor: Frac(1)})
	a, b := []int{5, 5, 2}, []int{6, 5, 2}
	if _, err := u.LoadCell(context.Background(), a, 2); err != nil { // one block
		t.Fatal(err)
	}
	if _, err := u.LoadCell(context.Background(), b, 12); err != nil { // six blocks
		t.Fatal(err)
	}
	u.Reset()
	stA, err := u.FetchCell(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	u.Reset()
	stB, err := u.FetchCell(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if stB.TotalMs <= stA.TotalMs {
		t.Errorf("overflowed cell fetch %.2f ms not costlier than clean cell %.2f ms",
			stB.TotalMs, stA.TotalMs)
	}
}

// TestUpdatableWriteCostCharged: updates are real service write ops —
// their simulated I/O shows up in the per-operation Stats.
func TestUpdatableWriteCostCharged(t *testing.T) {
	u := newUpdatable(t, UpdateOptions{PointsPerBlock: 2, FillFactor: Frac(1)})
	sess := u.Begin()
	st, err := sess.Insert(context.Background(), []int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 1 || st.Requests != 1 || st.TotalMs <= 0 {
		t.Fatalf("insert charged no write I/O: %+v", st)
	}
	if st.Cells != 0 {
		t.Fatalf("write blocks leaked into Cells: %+v", st)
	}
	// Overflowing the 2-point home block writes the old tail (chain
	// pointer) and the fresh overflow page.
	if _, err := sess.Insert(context.Background(), []int{3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	st, err = sess.Insert(context.Background(), []int{3, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 2 {
		t.Fatalf("overflowing insert wrote %d blocks, want 2 (tail pointer + new page): %+v", st.Writes, st)
	}
	if got := sess.Stats(); got.Writes != 4 {
		t.Fatalf("session lifetime writes %d, want 4", got.Writes)
	}
}

func TestUpdatableStoreValidation(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{30, 8, 5}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{OverflowBlocks: 1 << 40})); err == nil {
		t.Error("oversized overflow extent accepted")
	}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{FillFactor: Frac(2)})); err == nil {
		t.Error("bad fill factor accepted")
	}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{FillFactor: Frac(0)})); err == nil {
		t.Error("zero fill factor accepted")
	}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{ReclaimBelow: Frac(1)})); err == nil {
		t.Error("reclaim threshold 1 accepted")
	}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{ReclaimBelow: Frac(-0.1)})); err == nil {
		t.Error("negative reclaim threshold accepted")
	}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{PointsPerBlock: -1})); err == nil {
		t.Error("negative PointsPerBlock accepted")
	}
	if _, err := Open(v, MultiMap, dims,
		Updatable(UpdateOptions{OverflowBlocks: -1})); err == nil {
		t.Error("negative OverflowBlocks accepted")
	}
}

// TestUpdatableReclaimZeroDisablesReorganization: an explicit
// ReclaimBelow of zero must mean "never reclaim", not "use the 0.25
// default" — the zero-value sentinel bug.
func TestUpdatableReclaimZeroDisablesReorganization(t *testing.T) {
	u := newUpdatable(t, UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1), ReclaimBelow: Frac(0)})
	cell := []int{2, 2, 2}
	if _, err := u.LoadCell(context.Background(), cell, 12); err != nil { // 3 full blocks
		t.Fatal(err)
	}
	for i := 0; i < 11; i++ { // down to 1/12 occupancy
		if _, err := u.Delete(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
	}
	if n := u.Reorganizations(); n != 0 {
		t.Fatalf("ReclaimBelow=Frac(0) still reorganized %d times", n)
	}
	if cl, _ := u.ChainLen(cell); cl != 3 {
		t.Fatalf("chain compacted to %d blocks despite reclamation off", cl)
	}
}

// TestOverflowExtentCollision: the overflow extent is carved from the
// tail of disk 0, so an OverflowBlocks large enough to reach back into
// the mapped dataset must be rejected at construction.
func TestOverflowExtentCollision(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	// The dataset starts at the head of disk 0; reserving all but 100
	// blocks of the disk reaches into it.
	huge := v.TotalBlocks() - 100
	if _, err := Open(v, MultiMap, []int{30, 8, 5},
		Updatable(UpdateOptions{OverflowBlocks: huge})); err == nil {
		t.Fatal("overflow extent overlapping dataset cells accepted")
	}
	// Same check guards the linear mappings' contiguous extent.
	if _, err := Open(v, Naive, []int{30, 8, 5},
		Updatable(UpdateOptions{OverflowBlocks: huge})); err == nil {
		t.Fatal("overflow extent overlapping naive extent accepted")
	}
	// A tail extent clear of the dataset still works.
	if _, err := Open(v, MultiMap, []int{30, 8, 5},
		Updatable(UpdateOptions{OverflowBlocks: 1000})); err != nil {
		t.Fatalf("non-colliding overflow extent rejected: %v", err)
	}
}

// TestOverflowSpreadAcrossDisks: on a multi-disk volume the overflow
// pool is carved from the tail of every member disk, so a pool too big
// for disk 0's free tail alone still fits — and the collision check
// runs per disk, only rejecting the disks whose extents would reach
// into cells actually mapped there.
func TestOverflowSpreadAcrossDisks(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{30, 8, 5}
	// Probe the dataset's span on disk 0 (the default pinned placement).
	probe, err := Open(v, MultiMap, dims)
	if err != nil {
		t.Fatal(err)
	}
	_, hi := probe.grp.Member(0).Map.SpanVLBN()
	free0 := v.svc.Volume().DiskStart(0) + v.svc.Volume().DiskBlocks(0) - hi
	if free0 <= 0 {
		t.Fatalf("dataset fills disk 0 (span end %d)", hi)
	}
	// 1.5x disk 0's free tail: impossible on disk 0 alone, fine when
	// split across both disks (disk 1 holds no cells at all).
	u, err := Open(v, MultiMap, dims, Updatable(UpdateOptions{OverflowBlocks: free0 * 3 / 2}))
	if err != nil {
		t.Fatalf("overflow pool spanning both disk tails rejected: %v", err)
	}
	// Successive overflow pages alternate disks: force a long chain and
	// check both disks' tails received pages.
	if _, err := u.LoadCell(context.Background(), []int{0, 0, 0}, 64*6); err != nil {
		t.Fatal(err)
	}
	si, _, cs, err := u.route([]int{0, 0, 0})
	if err != nil || si != 0 {
		t.Fatalf("route: shard %d err %v", si, err)
	}
	reqs, err := cs.ReadRequests([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[int]int{}
	for _, r := range reqs[1:] {
		di, _, err := v.svc.Volume().Locate(r.VLBN)
		if err != nil {
			t.Fatal(err)
		}
		onDisk[di]++
	}
	if onDisk[0] == 0 || onDisk[1] == 0 {
		t.Fatalf("overflow pages not spread across disks: %v", onDisk)
	}
	// 3x disk 0's free tail: the per-disk share alone reaches back into
	// disk 0's mapped cells, so the per-disk collision check fires.
	if _, err := Open(v, MultiMap, dims, Updatable(UpdateOptions{OverflowBlocks: free0 * 3})); err == nil {
		t.Fatal("per-disk extent overlapping disk 0's cells accepted")
	}
}

// TestUpdatableShardedRouting: on a sharded updatable store every
// update routes to the shard owning its cell — chains grow in the
// right shard's tracker, fetches pay that shard's disks, and write ops
// land on the owning shard's service.
func TestUpdatableShardedRouting(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{30, 8, 5}
	u, err := Open(v, MultiMap, dims, WithShards(2), WithCache(1<<18),
		Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if u.NumShards() != 2 {
		t.Fatalf("NumShards=%d", u.NumShards())
	}
	loCell := []int{0, 0, 0}  // shard 0
	hiCell := []int{29, 7, 4} // shard 1
	if si, _ := u.ShardOf(loCell); si != 0 {
		t.Fatalf("ShardOf(%v)=%d", loCell, si)
	}
	if si, _ := u.ShardOf(hiCell); si != 1 {
		t.Fatalf("ShardOf(%v)=%d", hiCell, si)
	}
	for _, cell := range [][]int{loCell, hiCell} {
		for i := 0; i < 10; i++ { // overflow past the 4-point home block
			if _, err := u.Insert(context.Background(), cell); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := u.Points(cell); err != nil || n != 10 {
			t.Fatalf("Points(%v)=%d err=%v", cell, n, err)
		}
		if cl, err := u.ChainLen(cell); err != nil || cl != 3 {
			t.Fatalf("ChainLen(%v)=%d err=%v, want 3", cell, cl, err)
		}
		st, err := u.FetchCell(context.Background(), cell)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cells != 3 || st.TotalMs <= 0 {
			t.Fatalf("FetchCell(%v) stats wrong: %+v", cell, st)
		}
	}
	// Both shards must have served write ops for their own cells.
	for i, sm := range u.Metrics().Shards {
		if sm.Totals.WriteOps == 0 {
			t.Fatalf("shard %d served no write ops", i)
		}
	}
	// Cache coherence across the shard boundary: a cached chain fetch
	// must be invalidated by that shard's next insert.
	warm, err := u.FetchCell(context.Background(), hiCell)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits == 0 || warm.TotalMs != 0 {
		t.Fatalf("repeat fetch did not hit the shard's cache: %+v", warm)
	}
	if _, err := u.Insert(context.Background(), hiCell); err != nil {
		t.Fatal(err)
	}
	cold, err := u.FetchCell(context.Background(), hiCell)
	if err != nil {
		t.Fatal(err)
	}
	// The insert dirtied (at least) the block that received the point;
	// its cached extent must be gone, so the fetch pays disk I/O again.
	if cold.CacheMisses == 0 || cold.TotalMs <= 0 {
		t.Fatalf("fetch after insert replayed stale cached extents: %+v", cold)
	}
}

// stripCacheCounters zeroes the accounting fields that legitimately
// differ between cache-on and cache-off runs, leaving every cost field
// for exact comparison.
func stripCacheCounters(st Stats) Stats {
	st.CacheHits, st.CacheMisses = 0, 0
	return st
}

// TestFetchCellCacheCoherence is the headline regression test: with the
// extent cache on, FetchCell after any Insert / Delete / reorganization
// of that cell must return exactly the Stats a cache-off run reports —
// the write path must invalidate stale extents instead of letting the
// cache replay a pre-update chain's cost.
func TestFetchCellCacheCoherence(t *testing.T) {
	opts := UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1), ReclaimBelow: Frac(0.3)}
	cached := newUpdatable(t, opts, WithCache(1<<20))
	plain := newUpdatable(t, opts)
	cell := []int{4, 1, 2}

	both := func(op string, f func(u *Store) (Stats, error)) (Stats, Stats) {
		t.Helper()
		a, err := f(cached)
		if err != nil {
			t.Fatalf("%s (cached): %v", op, err)
		}
		b, err := f(plain)
		if err != nil {
			t.Fatalf("%s (plain): %v", op, err)
		}
		return a, b
	}
	compare := func(op string, a, b Stats) {
		t.Helper()
		if stripCacheCounters(a) != stripCacheCounters(b) {
			t.Fatalf("%s: cache-on stats %+v != cache-off stats %+v", op, a, b)
		}
	}

	if _, err := cached.LoadCell(context.Background(), cell, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.LoadCell(context.Background(), cell, 4); err != nil {
		t.Fatal(err)
	}

	// Cold fetch: identical by construction, and it primes the cache.
	a, b := both("fetch-cold", func(u *Store) (Stats, error) { return u.FetchCell(context.Background(), cell) })
	compare("fetch-cold", a, b)

	// Prove the cache is live: a repeat fetch on the cached store hits
	// and performs no disk I/O (so the two head states stay aligned).
	hit, err := cached.FetchCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if hit.CacheHits != 1 || hit.Requests != 0 || hit.TotalMs != 0 {
		t.Fatalf("repeat fetch did not hit the cache: %+v", hit)
	}

	// Insert until the chain overflows to 3 blocks, then fetch: the
	// cached home-block extent must have been invalidated by the
	// inserts, so the fetch pays the full 3-block cost.
	for i := 0; i < 8; i++ {
		if _, err := cached.Insert(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Insert(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
	}
	if cl, _ := cached.ChainLen(cell); cl != 3 {
		t.Fatalf("chain length %d, want 3", cl)
	}
	a, b = both("fetch-after-insert", func(u *Store) (Stats, error) { return u.FetchCell(context.Background(), cell) })
	if a.CacheHits != 0 {
		t.Fatalf("fetch after inserts replayed a stale cached extent: %+v", a)
	}
	compare("fetch-after-insert", a, b)

	// Delete down to reorganization, then fetch: the compaction dirtied
	// the whole chain, so every cached extent over it must be gone.
	for i := 0; i < 9; i++ {
		if _, err := cached.Delete(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Delete(context.Background(), cell); err != nil {
			t.Fatal(err)
		}
	}
	if cached.Reorganizations() == 0 {
		t.Fatal("expected a reorganization")
	}
	a, b = both("fetch-after-reorg", func(u *Store) (Stats, error) { return u.FetchCell(context.Background(), cell) })
	if a.CacheHits != 0 {
		t.Fatalf("fetch after reorganization replayed a stale cached extent: %+v", a)
	}
	compare("fetch-after-reorg", a, b)
}

// TestLoadCellFailureStillInvalidates: a bulk load that dies partway
// (overflow extent exhausted) has already dirtied blocks — those must
// still be invalidated before the error surfaces, or a later fetch
// would replay their stale cached cost.
func TestLoadCellFailureStillInvalidates(t *testing.T) {
	u := newUpdatable(t,
		UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1), OverflowBlocks: 1},
		WithCache(1<<20))
	cell := []int{7, 3, 1}
	st, err := u.FetchCell(context.Background(), cell) // primes the cache with the home block
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 1 {
		t.Fatalf("priming fetch accounting wrong: %+v", st)
	}
	sess := u.Begin()
	if _, err := sess.LoadCell(context.Background(), cell, 12); err == nil {
		t.Fatal("load past the 1-block overflow extent accepted")
	}
	// The failed load dirtied the home block (and the one page it got);
	// the next fetch must go back to the disks for every chain block.
	st, err = u.FetchCell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 {
		t.Fatalf("fetch after failed load replayed a stale cached extent: %+v", st)
	}
}

// TestUpdatableConcurrentSessions mixes Insert/Delete traffic with beam
// and range queries across concurrent sessions on one cached store —
// the -race exercise for the write path.
func TestUpdatableConcurrentSessions(t *testing.T) {
	u := newUpdatable(t,
		UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1), ReclaimBelow: Frac(0.3)},
		WithCache(1<<18))
	dims := u.Dims()
	// Preload so deletes have points to remove.
	for x := 0; x < dims[0]; x++ {
		if _, err := u.LoadCell(context.Background(), []int{x, 0, 0}, 6); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 6
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := u.Begin()
			rng := rand.New(rand.NewSource(int64(31 + i)))
			for op := 0; op < 40; op++ {
				cell := []int{rng.Intn(dims[0]), 0, 0}
				var err error
				switch rng.Intn(4) {
				case 0:
					_, err = sess.Insert(context.Background(), cell)
				case 1:
					// Deletes race with other sessions' deletes; an
					// emptied cell is not an error for this test.
					if _, derr := sess.Delete(context.Background(), cell); derr != nil {
						continue
					}
				case 2:
					_, err = sess.FetchCell(context.Background(), cell)
				default:
					_, err = sess.RangeQuery(context.Background(), []int{cell[0], 0, 0}, []int{cell[0] + 1, dims[1], dims[2]})
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
	tot := u.vols[0].ServiceTotals()
	if tot.WriteOps == 0 {
		t.Fatal("no write ops reached the service")
	}
	if tot.Attributed.Writes == 0 {
		t.Fatal("no written blocks attributed")
	}
}

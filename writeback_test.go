package multimap

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// wbPair opens two identical updatable cache-on stores, one with
// write-back (triggers pushed out of the way so only read dependencies
// and explicit flushes commit) and one write-through — the comparison
// axis of the coherence tests.
func wbPair(t *testing.T, opts UpdateOptions) (wb, plain *Store) {
	t.Helper()
	open := func(extra ...Option) *Store {
		v, err := OpenVolumeDepth(32, MediumTestDisk)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(v, MultiMap, []int{30, 8, 5},
			append([]Option{WithCache(1 << 20), Updatable(opts)}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return open(WithWriteBack(1<<40, time.Hour)), open()
}

// TestFetchCellWriteBackCoherence extends the PR 3 headline regression
// test to write-back mode: with the extent cache on, FetchCell after a
// buffered-but-unflushed Insert/Delete must return exactly the Stats a
// write-back-off store reports — the read-dependency trigger commits
// the dirty data first, so a read never observes pre-write disk state
// and no stale cached extent is ever replayed.
func TestFetchCellWriteBackCoherence(t *testing.T) {
	opts := UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1), ReclaimBelow: Frac(0.3)}
	wb, plain := wbPair(t, opts)
	cell := []int{4, 1, 2}

	both := func(op string, f func(u *Store) (Stats, error)) (Stats, Stats) {
		t.Helper()
		a, err := f(wb)
		if err != nil {
			t.Fatalf("%s (write-back): %v", op, err)
		}
		b, err := f(plain)
		if err != nil {
			t.Fatalf("%s (write-through): %v", op, err)
		}
		return a, b
	}
	compare := func(op string, a, b Stats) {
		t.Helper()
		if a != b {
			t.Fatalf("%s: write-back stats %+v != write-through stats %+v", op, a, b)
		}
	}
	fetch := func(u *Store) (Stats, error) { return u.FetchCell(context.Background(), cell) }

	// Load two points (one block, below the 4-point capacity so later
	// single inserts dirty exactly one extent). The write-back store
	// only buffers it.
	if st, err := wb.LoadCell(context.Background(), cell, 2); err != nil || st.TotalMs != 0 {
		t.Fatalf("load not absorbed by write-back: %+v err=%v", st, err)
	}
	if st, err := plain.LoadCell(context.Background(), cell, 2); err != nil || st.TotalMs <= 0 {
		t.Fatalf("write-through load not charged: %+v err=%v", st, err)
	}
	if tot := wb.Metrics().Shards[0].Totals; tot.DirtyBlocks == 0 {
		t.Fatalf("nothing buffered after load: %+v", tot)
	}

	// Cold fetch of the buffered-but-unflushed cell: the read dependency
	// flushes first, and one absorbed op committed alone is bit-identical
	// to the write-through write — so the fetch costs must match exactly.
	a, b := both("fetch-cold", fetch)
	compare("fetch-cold", a, b)
	if tot := wb.Metrics().Shards[0].Totals; tot.DirtyBlocks != 0 || tot.FlushBatches != 1 {
		t.Fatalf("read dependency did not commit the buffered load: %+v", tot)
	}

	// The cache is live on both stores: a repeat fetch hits, free.
	a, b = both("fetch-hit", fetch)
	compare("fetch-hit", a, b)
	if a.CacheHits != 1 || a.TotalMs != 0 {
		t.Fatalf("repeat fetch did not hit the cache under write-back: %+v", a)
	}

	// One insert, buffered: the fetch must pay the post-insert cost —
	// the buffered write already invalidated the cached extent — and
	// match the write-through store exactly.
	a, b = both("insert", func(u *Store) (Stats, error) { return u.Insert(context.Background(), cell) })
	if a.TotalMs != 0 || a.Writes == 0 {
		t.Fatalf("insert not absorbed: %+v", a)
	}
	if b.TotalMs <= 0 {
		t.Fatalf("write-through insert not charged: %+v", b)
	}
	a, b = both("fetch-after-insert", fetch)
	if a.CacheHits != 0 {
		t.Fatalf("fetch after buffered insert replayed a stale cached extent: %+v", a)
	}
	compare("fetch-after-insert", a, b)

	// One delete, buffered: same contract.
	if a, _ = both("delete", func(u *Store) (Stats, error) { return u.Delete(context.Background(), cell) }); a.TotalMs != 0 {
		t.Fatalf("delete not absorbed: %+v", a)
	}
	a, b = both("fetch-after-delete", fetch)
	if a.CacheHits != 0 {
		t.Fatalf("fetch after buffered delete replayed a stale cached extent: %+v", a)
	}
	compare("fetch-after-delete", a, b)

	// Burst of inserts driving the chain into overflow: the buffered
	// writes coalesce (that is the perf win — asserted via the service
	// counter), and the fetch still reads the exact post-update chain.
	// Head trajectories legitimately diverge here (one group commit vs
	// eight write-through batches), so the comparison is structural:
	// same chain, same requests, full disk cost, no stale hits.
	for i := 0; i < 8; i++ {
		both("insert-burst", func(u *Store) (Stats, error) { return u.Insert(context.Background(), cell) })
	}
	if tot := wb.Metrics().Shards[0].Totals; tot.CoalescedWrites == 0 {
		t.Fatalf("insert burst did not coalesce in the write-back buffer: %+v", tot)
	}
	ca, _ := wb.ChainLen(cell)
	cb, _ := plain.ChainLen(cell)
	if ca != cb || ca != 3 {
		t.Fatalf("chains diverged: write-back %d, write-through %d, want 3", ca, cb)
	}
	a, b = both("fetch-after-burst", fetch)
	if a.CacheHits != 0 || a.TotalMs <= 0 {
		t.Fatalf("fetch after insert burst replayed stale cached extents: %+v", a)
	}
	if a.Cells != b.Cells || a.Requests != b.Requests || a.CacheMisses != b.CacheMisses {
		t.Fatalf("fetch-after-burst shape differs: write-back %+v vs write-through %+v", a, b)
	}
	if tot := wb.Metrics().Shards[0].Totals; tot.DirtyBlocks != 0 {
		t.Fatalf("dirty data survived the dependent fetch: %+v", tot)
	}

	// Store.Flush on a clean store is free; Close leaves nothing behind.
	if err := wb.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	wb.Close()
	plain.Close()
}

// TestWriteBackShardedSessionClose: on a sharded write-back store,
// closing a session commits every shard's dirty buffer (the per-shard
// flush-on-close contract at the public layer), and a closed store's
// Flush fails with ErrClosed.
func TestWriteBackShardedSessionClose(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(v, MultiMap, []int{30, 8, 5},
		WithShards(2), Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}),
		WithWriteBack(1<<40, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	sess := s.Begin()
	// One cell per shard slab.
	for _, cell := range [][]int{{0, 0, 0}, {29, 7, 4}} {
		if st, err := sess.LoadCell(context.Background(), cell, 2); err != nil || st.TotalMs != 0 {
			t.Fatalf("load %v not absorbed: %+v err=%v", cell, st, err)
		}
	}
	for i, sm := range s.Metrics().Shards {
		tot := sm.Totals
		if tot.DirtyBlocks == 0 {
			t.Fatalf("shard %d has nothing buffered: %+v", i, tot)
		}
	}
	if err := sess.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, sm := range s.Metrics().Shards {
		tot := sm.Totals
		if tot.DirtyBlocks != 0 || tot.FlushBatches != 1 {
			t.Fatalf("shard %d not flushed on session close: %+v", i, tot)
		}
	}
	if st := sess.Stats(); st.TotalMs <= 0 || st.FlushBatches != 2 {
		t.Fatalf("flush costs not credited to the closing session: %+v", st)
	}
	s.Close()
	if err := s.Flush(context.Background()); err != ErrClosed {
		t.Fatalf("Flush on closed store: %v, want ErrClosed", err)
	}
}

// TestWriteBackConcurrentUpdates races updating and fetching sessions
// on a write-back store (run with -race) and closes the books with one
// flush: summed session Stats must reproduce the attributed service
// totals — write-back's deferred, shared flush costs included.
func TestWriteBackConcurrentUpdates(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(v, MultiMap, []int{30, 8, 5},
		WithCache(4096), Updatable(UpdateOptions{PointsPerBlock: 8}),
		WithWriteBack(64, 5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	defer s.Close()

	const clients = 5
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions[i] = s.Begin()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(700 + i)))
			for q := 0; q < 12; q++ {
				cell := []int{rng.Intn(30), rng.Intn(8), rng.Intn(5)}
				var err error
				switch q % 3 {
				case 0:
					_, err = sessions[i].Insert(context.Background(), cell)
				case 1:
					_, err = sessions[i].FetchCell(context.Background(), cell)
				default:
					_, err = sessions[i].LoadCell(context.Background(), cell, 1+rng.Intn(4))
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
	if err := s.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for _, q := range sessions {
		sum.Accumulate(q.Stats())
	}
	sum.Accumulate(s.def.Stats()) // store-level Flush rides the default session
	tot := s.Metrics().Shards[0].Totals
	if tot.DirtyBlocks != 0 {
		t.Fatalf("dirty data left after the closing flush: %+v", tot)
	}
	if sum.Writes == 0 || sum.Cells == 0 {
		t.Fatalf("workload issued no traffic: %+v", sum)
	}
	sum.ElapsedMs = tot.Attributed.ElapsedMs
	want := tot.Attributed
	if sum.Cells != want.Cells || sum.Requests != want.Requests || sum.Writes != want.Writes ||
		sum.CacheHits != want.CacheHits || sum.CacheMisses != want.CacheMisses ||
		sum.InvalidatedBlocks != want.InvalidatedBlocks ||
		sum.CoalescedWrites != want.CoalescedWrites || sum.FlushBatches != want.FlushBatches {
		t.Fatalf("attribution sum broken: sessions %+v vs attributed %+v", sum, want)
	}
	if d := math.Abs(sum.TotalMs - want.TotalMs); d > 1e-6*(1+math.Abs(want.TotalMs)) {
		t.Fatalf("attributed time drifted by %g: %+v vs %+v", d, sum, want)
	}
}

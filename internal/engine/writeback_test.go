package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// wbService builds a service with write-back on and triggers pushed out
// of the way (huge watermark, hour-long interval), so each test fires
// exactly the trigger it is about.
func wbService(t testing.TB, v *lvm.Volume, cacheBlocks int64) *Service {
	t.Helper()
	return NewService(v, ServiceOptions{
		CacheBlocks: cacheBlocks,
		WriteBack: WriteBackOptions{
			Enabled:         true,
			WatermarkBlocks: 1 << 40,
			FlushInterval:   time.Hour,
		},
	})
}

// TestWriteBackAbsorbAndExplicitFlush: buffered writes are acknowledged
// with zero I/O cost, coalesce into dirty extents, and pay exactly once
// on the explicit flush — a second Flush is a no-op, so nothing is
// double-charged.
func TestWriteBackAbsorbAndExplicitFlush(t *testing.T) {
	v := testVolume(t)
	svc := wbService(t, v, 0)
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})

	// Three writes: two overlapping/adjacent (they coalesce into one
	// dirty extent), one disjoint.
	for i, reqs := range [][]lvm.Request{
		{{VLBN: 100, Count: 8}},
		{{VLBN: 104, Count: 8}}, // overlaps the first — coalesces
		{{VLBN: 400, Count: 4}},
	} {
		st, err := sess.Write(context.Background(), reqs, disk.SchedSPTF)
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalMs != 0 || st.Requests != 0 || st.ElapsedMs != 0 {
			t.Fatalf("write %d charged I/O at absorb time: %+v", i, st)
		}
		if st.Writes != int64(reqs[0].Count) {
			t.Fatalf("write %d blocks not counted at absorb: %+v", i, st)
		}
		if want := int64(0); i == 1 {
			want = 1
			if st.CoalescedWrites != want {
				t.Fatalf("overlapping write %d not counted as coalesced: %+v", i, st)
			}
		} else if st.CoalescedWrites != want {
			t.Fatalf("disjoint write %d counted as coalesced: %+v", i, st)
		}
	}
	tot := svc.Totals()
	// [100,112) merged plus [400,404).
	if tot.DirtyBlocks != 16 || tot.WriteOps != 3 || tot.CoalescedWrites != 1 {
		t.Fatalf("dirty bookkeeping wrong before flush: %+v", tot)
	}
	if tot.FlushBatches != 0 || tot.IssuedRequests != 0 {
		t.Fatalf("I/O issued before any flush trigger: %+v", tot)
	}

	if err := sess.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	tot = svc.Totals()
	if tot.FlushBatches != 1 || tot.DirtyBlocks != 0 || tot.IssuedRequests != 2 {
		t.Fatalf("explicit flush bookkeeping wrong: %+v", tot)
	}
	lt := sess.Totals()
	if lt.TotalMs <= 0 || lt.Requests != 2 || lt.FlushBatches != 1 {
		t.Fatalf("flush cost not credited to the owning session: %+v", lt)
	}
	// Exactly once: flushing an empty buffer changes nothing.
	if err := sess.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tot2 := svc.Totals(); tot2 != tot {
		t.Fatalf("empty flush changed totals: %+v vs %+v", tot2, tot)
	}
	if lt2 := sess.Totals(); lt2 != lt {
		t.Fatalf("empty flush re-charged the session: %+v vs %+v", lt2, lt)
	}
	lt.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(lt, tot.Attributed, t)
}

// TestWriteBackMatchesWriteThrough: one buffered write committed by one
// flush must cost exactly what the write-through path charges for the
// same op — the group commit defers the I/O, it does not change it. And
// N adjacent writes committed together must cost exactly what ONE
// write-through op over their union costs: the whole point of group
// commit, asserted bit-for-bit.
func TestWriteBackMatchesWriteThrough(t *testing.T) {
	reqs := []lvm.Request{{VLBN: 200, Count: 8}}

	vA := testVolume(t)
	svcA := NewService(vA, ServiceOptions{})
	defer svcA.Close()
	sessA := svcA.NewSession(SessionOptions{})
	if _, err := sessA.Write(context.Background(), reqs, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}

	vB := testVolume(t)
	svcB := wbService(t, vB, 0)
	defer svcB.Close()
	sessB := svcB.NewSession(SessionOptions{})
	if _, err := sessB.Write(context.Background(), reqs, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	if err := sessB.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := sessB.Totals()
	got.FlushBatches = 0 // the only field write-back may add
	if want := sessA.Totals(); got != want {
		t.Fatalf("single buffered write != write-through: %+v vs %+v", got, want)
	}

	// Four adjacent 4-block writes, buffered then group-committed ≡ one
	// 16-block write-through op.
	vC := testVolume(t)
	svcC := NewService(vC, ServiceOptions{})
	defer svcC.Close()
	sessC := svcC.NewSession(SessionOptions{})
	if _, err := sessC.Write(context.Background(), []lvm.Request{{VLBN: 300, Count: 16}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}

	vD := testVolume(t)
	svcD := wbService(t, vD, 0)
	defer svcD.Close()
	sessD := svcD.NewSession(SessionOptions{})
	for i := 0; i < 4; i++ {
		if _, err := sessD.Write(context.Background(),
			[]lvm.Request{{VLBN: 300 + int64(4*i), Count: 4}}, disk.SchedSPTF); err != nil {
			t.Fatal(err)
		}
	}
	if err := sessD.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	got = sessD.Totals()
	if got.CoalescedWrites != 3 {
		t.Fatalf("adjacent writes did not coalesce: %+v", got)
	}
	got.FlushBatches, got.CoalescedWrites = 0, 0
	if want := sessC.Totals(); got != want {
		t.Fatalf("group commit of 4 adjacent writes != one merged write: %+v vs %+v", got, want)
	}
}

// TestWriteBackWatermarkTrigger: reaching the watermark flushes within
// the same admission pass, without any explicit Flush.
func TestWriteBackWatermarkTrigger(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{
		WriteBack: WriteBackOptions{Enabled: true, WatermarkBlocks: 12, FlushInterval: time.Hour},
	})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})

	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	// The ack races a watermark flush, which would run after the reply in
	// the same pass; an empty Apply is a control op, so it waits for that
	// pass, and with WriteBack unset it commits nothing itself. An
	// explicit Flush would commit whether or not the watermark fired.
	barrier := func() {
		if err := svc.Apply(ServiceOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	barrier()
	if tot := svc.Totals(); tot.FlushBatches != 0 || tot.DirtyBlocks != 8 {
		t.Fatalf("flushed below watermark: %+v", tot)
	}
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 400, Count: 4}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	// 12 dirty blocks == watermark: the serving pass flushes right after
	// absorbing.
	barrier()
	tot := svc.Totals()
	if tot.FlushBatches != 1 || tot.DirtyBlocks != 0 {
		t.Fatalf("watermark did not trigger exactly one flush: %+v", tot)
	}
	lt := sess.Totals()
	if lt.TotalMs <= 0 || lt.FlushBatches != 1 {
		t.Fatalf("watermark flush not credited: %+v", lt)
	}
	lt.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(lt, tot.Attributed, t)
}

// TestWriteBackIntervalTrigger: dirty data on an otherwise idle service
// commits once the flush interval elapses — the loop stays alive,
// sleeping, instead of exiting with the queue.
func TestWriteBackIntervalTrigger(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{
		WriteBack: WriteBackOptions{Enabled: true, WatermarkBlocks: 1 << 40, FlushInterval: 10 * time.Millisecond},
	})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tot := svc.Totals()
		if tot.FlushBatches == 1 && tot.DirtyBlocks == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interval flush never fired: %+v", tot)
		}
		time.Sleep(time.Millisecond)
	}
	if lt := sess.Totals(); lt.TotalMs <= 0 || lt.FlushBatches != 1 {
		t.Fatalf("interval flush not credited: %+v", lt)
	}
}

// TestWriteBackReadDependencyTrigger: a read overlapping dirty data
// forces the flush before the read is served; a disjoint read does not.
func TestWriteBackReadDependencyTrigger(t *testing.T) {
	v := testVolume(t)
	svc := wbService(t, v, 0)
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	// Disjoint read: no dependency, nothing flushes. RunPlan returning is
	// the barrier — a read-dep flush would have happened before it was
	// served.
	if _, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 400, Count: 4}}, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}
	if tot := svc.Totals(); tot.FlushBatches != 0 || tot.DirtyBlocks != 8 {
		t.Fatalf("disjoint read flushed the buffer: %+v", tot)
	}
	// Overlapping read: the dirty extent commits first.
	if _, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 104, Count: 2}}, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}
	tot := svc.Totals()
	if tot.FlushBatches != 1 || tot.DirtyBlocks != 0 {
		t.Fatalf("overlapping read did not force the flush: %+v", tot)
	}
	lt := sess.Totals()
	lt.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(lt, tot.Attributed, t)
}

// TestWriteBackCloseFlushes: Close drains the dirty buffer before the
// loop retires — no acknowledged write is lost to shutdown — and
// post-close submissions fail with ErrClosed.
func TestWriteBackCloseFlushes(t *testing.T) {
	v := testVolume(t)
	svc := wbService(t, v, 0)
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	tot := svc.Totals()
	if tot.FlushBatches != 1 || tot.DirtyBlocks != 0 {
		t.Fatalf("Close did not flush exactly once: %+v", tot)
	}
	if lt := sess.Totals(); lt.TotalMs <= 0 || lt.FlushBatches != 1 {
		t.Fatalf("close-time flush not credited: %+v", lt)
	}
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Write: %v, want ErrClosed", err)
	}
	if err := sess.Flush(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Flush: %v, want ErrClosed", err)
	}
}

// TestWriteBackFlushCancelledCtx: a Flush whose ctx is already dead
// aborts without flushing — the dirty buffer stays intact and commits,
// once, on a later healthy trigger.
func TestWriteBackFlushCancelledCtx(t *testing.T) {
	v := testVolume(t)
	svc := wbService(t, v, 0)
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := sess.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Flush: %v, want context.Canceled", err)
	}
	if tot := svc.Totals(); tot.FlushBatches != 0 || tot.DirtyBlocks != 8 {
		t.Fatalf("cancelled Flush committed or dropped dirty data: %+v", tot)
	}
	if err := sess.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	tot := svc.Totals()
	if tot.FlushBatches != 1 || tot.DirtyBlocks != 0 {
		t.Fatalf("recovery flush wrong: %+v", tot)
	}
	lt := sess.Totals()
	if lt.FlushBatches != 1 || lt.TotalMs <= 0 {
		t.Fatalf("recovery flush not credited exactly once: %+v", lt)
	}
	lt.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(lt, tot.Attributed, t)
}

// TestWriteBackCancelledWriteInvalidates: a write dropped on a dead ctx
// is never buffered — but its cache invalidation still happens, the
// same coherence-survives-cancellation contract as write-through.
func TestWriteBackCancelledWriteInvalidates(t *testing.T) {
	v := testVolume(t)
	svc := wbService(t, v, 1<<20)
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := sess.Write(ctx, []lvm.Request{{VLBN: 102, Count: 2}}, disk.SchedSPTF)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write: %v, want context.Canceled", err)
	}
	if st.InvalidatedBlocks != 2 || st.Cancelled != 1 || st.Writes != 0 {
		t.Fatalf("cancelled write bookkeeping: %+v", st)
	}
	if tot := svc.Totals(); tot.DirtyBlocks != 0 || tot.WriteOps != 0 {
		t.Fatalf("cancelled write was buffered: %+v", tot)
	}
	// The invalidated blocks must miss on re-read.
	rst, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rst.CacheHits != 0 || rst.CacheMisses != 1 {
		t.Fatalf("stale extent survived a cancelled write: %+v", rst)
	}
}

// TestWriteBackApplyFlushesFirst: reconfiguring write-back commits the
// dirty buffer under the old configuration first, and the new
// watermark then governs.
func TestWriteBackApplyFlushesFirst(t *testing.T) {
	v := testVolume(t)
	svc := wbService(t, v, 0)
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(ServiceOptions{WriteBack: WriteBackOptions{
		Enabled: true, WatermarkBlocks: 4, FlushInterval: time.Hour,
	}}); err != nil {
		t.Fatal(err)
	}
	tot := svc.Totals()
	if tot.FlushBatches != 1 || tot.DirtyBlocks != 0 {
		t.Fatalf("reconfiguration stranded the dirty buffer: %+v", tot)
	}
	// The new watermark: a 4-block write fills the buffer and commits.
	if _, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 400, Count: 4}}, disk.SchedSPTF); err != nil {
		t.Fatal(err)
	}
	// The ack races the watermark flush, which runs after the reply in
	// the same pass: an empty Apply is a barrier that flushes nothing.
	if err := svc.Apply(ServiceOptions{}); err != nil {
		t.Fatal(err)
	}
	if tot := svc.Totals(); tot.FlushBatches != 2 || tot.DirtyBlocks != 0 {
		t.Fatalf("new watermark not in force: %+v", tot)
	}
}

// TestWriteBackConcurrentAttribution: readers and writers race under
// write-back (run with -race); after a final drain, summed session
// totals must still reproduce the service's attributed ground truth —
// the attribution-sum property survives deferred, shared flush costs.
func TestWriteBackConcurrentAttribution(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk())
	svc := NewService(v, ServiceOptions{
		CacheBlocks: 4096,
		WriteBack:   WriteBackOptions{Enabled: true, WatermarkBlocks: 64, FlushInterval: 5 * time.Millisecond},
	})
	defer svc.Close()

	const clients = 6
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions[i] = svc.NewSession(SessionOptions{MaxInflight: 1 + i%2})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + i)))
			for q := 0; q < 8; q++ {
				if q%2 == 1 {
					reqs := lvm.SortCoalesce(randomReqs(rng, v, 5))
					if _, err := sessions[i].Write(context.Background(), reqs, disk.SchedSPTF); err != nil {
						errs[i] = err
						return
					}
					continue
				}
				chunks := randomChunks(rng, v, 1+rng.Intn(2), 20)
				if _, err := sessions[i].RunPlan(context.Background(), chunkPlan(chunks), Options{}); err != nil {
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
	// Drain whatever is still buffered so the books are closed.
	if err := sessions[0].Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for _, s := range sessions {
		sum.Accumulate(s.Totals())
	}
	tot := svc.Totals()
	if tot.DirtyBlocks != 0 {
		t.Fatalf("dirty data left after drain: %+v", tot)
	}
	if sum.Writes == 0 || tot.WriteOps != clients*4 {
		t.Fatalf("write traffic missing: %+v (writes=%d)", tot, sum.Writes)
	}
	sum.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(sum, tot.Attributed, t)
}

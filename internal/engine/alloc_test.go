//go:build !race

package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/disk"
)

// Allocation budgets for the session↔loop boundary
// (testing.AllocsPerRun cannot run under the race detector, hence the
// build tag; CI has a non-race leg for this file).

// TestRunPlanAllocBudget: a warm single-chunk query costs one
// allocation, its static plan, whether the requests reach the disks or
// every one hits the cache. Everything else it passes through reuses a
// buffer someone already owns: the in-flight window is an array on
// RunPlan's frame, the loop starts from a func value bound once in
// NewService, the volume serves into its own scratch, and the drive
// builds each SPTF window in the slabs it keeps. The reply is a Stats
// by value and the query plans on this goroutine, so the boundary
// itself adds nothing.
func TestRunPlanAllocBudget(t *testing.T) {
	v := testVolume(t)
	reqs := coalescedReqs(rand.New(rand.NewSource(1)), v, 40)
	for _, tc := range []struct {
		name   string
		cache  int64
		budget float64
	}{
		{"cache off", 0, 1},
		{"fully cached", 1 << 20, 1},
	} {
		svc := NewService(v, ServiceOptions{CacheBlocks: tc.cache})
		sess := svc.NewSession(SessionOptions{})
		run := func() {
			if _, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: scratch buffers grown, cache filled
		if got := testing.AllocsPerRun(200, run); got > tc.budget {
			t.Errorf("%s: %v allocs per single-chunk RunPlan, budget %v", tc.name, got, tc.budget)
		}
		svc.Close()
	}
}

// TestServeMergedAllocsNothingPerItem: every item of a merged batch
// asks for the same extents, so the batch issues the same requests
// however many items share them — and a warm batch of 8 allocates what
// a batch of 2 does, because an item's price is summed in place in the
// loop's scratch.
func TestServeMergedAllocsNothingPerItem(t *testing.T) {
	v := testVolume(t)
	reqs := coalescedReqs(rand.New(rand.NewSource(1)), v, 40)
	allocs := func(n int) float64 {
		svc := NewService(v, ServiceOptions{})
		defer svc.Close()
		items := make([]*serviceOp, n)
		for i := range items {
			items[i] = &serviceOp{kind: opChunk, reply: make(chan opResult, 1),
				chunk: Chunk{Reqs: reqs, Policy: disk.SchedSPTF}}
		}
		run := func() {
			svc.serveMerged(items)
			for _, it := range items {
				if r := <-it.reply; r.err != nil || r.stats.Requests != len(reqs) {
					t.Fatalf("item priced %+v, err %v", r.stats, r.err)
				}
			}
		}
		run() // warm the merge scratch
		return testing.AllocsPerRun(100, run)
	}
	two, four, eight := allocs(2), allocs(4), allocs(8)
	if two != four || four != eight {
		t.Errorf("merged batch allocations grow with its items: %v / %v / %v for 2 / 4 / 8", two, four, eight)
	}
	if four != 0 {
		t.Errorf("merged 4-chunk batch: %v allocs, budget 0", four)
	}
}

// TestDirtyWaitAllocsNothingPerWake: the write-back idle wait reuses
// the loop's one timer, whether a wait ends on a wake (a submission,
// Close) or on the flush deadline — it used to make a timer per wake.
// A wait that ends on a wake drains a tick that fired meanwhile, so the
// next wait is not cut short by it. The test goroutine stands in for
// the loop: nothing is queued, so no loop runs.
func TestDirtyWaitAllocsNothingPerWake(t *testing.T) {
	svc := NewService(testVolume(t), ServiceOptions{WriteBack: WriteBackOptions{Enabled: true}})
	defer svc.Close()
	woken := func() {
		svc.signalWake()
		svc.waitDirty(time.Hour)
	}
	expired := func() { svc.waitDirty(time.Microsecond) }
	woken() // warm: the first wait makes the timer
	for _, w := range []struct {
		name string
		wait func()
	}{{"woken", woken}, {"expired", expired}} {
		if got := testing.AllocsPerRun(100, w.wait); got != 0 {
			t.Errorf("%s idle wait: %v allocs, budget 0", w.name, got)
		}
	}
	// A wake that ends a wait after the timer has fired: on one P the
	// helper spins past the deadline before it signals, the wake hands
	// the select its case, and the scheduler runs the expired timer
	// before the waiter resumes, so the tick lands in the channel while
	// Stop reports it fired. Whichever way a wait ends, the next one
	// must sleep its full duration.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const tick, d = 200 * time.Microsecond, 2 * time.Millisecond
	for i := 0; i < 20; i++ {
		woke := make(chan struct{})
		go func() {
			for start := time.Now(); time.Since(start) < 2*tick; {
			}
			svc.signalWake()
			close(woke)
		}()
		svc.waitDirty(tick)
		<-woke
		select {
		case <-svc.wake: // the wait ended on the timer: take the token back
		default:
		}
		start := time.Now()
		svc.waitDirty(d)
		if got := time.Since(start); got < d {
			t.Fatalf("round %d: a %v wait returned after %v: a stale tick ended it", i, d, got)
		}
	}
}

// TestDirtyAbsorbAllocsNothing: absorbing a fresh single-owner extent
// into a warm write-back buffer allocates nothing — the extent keeps its
// first contributor inline, and the buffer reuses its array across
// group commits. (Each new dirty extent used to allocate its
// contribution slice.)
func TestDirtyAbsorbAllocsNothing(t *testing.T) {
	var d dirtySet
	owner := &Session{}
	now := time.Now()
	run := func() {
		for i := int64(0); i < 8; i++ {
			d.absorb(owner, 100*i, 100*i+10, 1<<20, now)
		}
		clear(d.take())
	}
	run() // warm: the buffer's array grown
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("absorbing 8 fresh single-owner extents: %v allocs, budget 0", got)
	}
}

// TestGroupCommitAllocsNothing: a warm group commit allocates nothing.
// Eight single-owner dirty extents from two sessions of two classes are
// built into the loop's flush scratch and priced by mergeScratch.price,
// the pricer a merged batch uses, and every share is posted by charge.
// A commit past keepFlush extents keeps none of its buffers. The test
// goroutine stands in for the loop: nothing is queued, so no loop runs.
func TestGroupCommitAllocsNothing(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{WriteBack: WriteBackOptions{Enabled: true}})
	defer svc.Close()
	owners := []*Session{
		svc.NewSession(SessionOptions{Class: "bulk"}),
		svc.NewSession(SessionOptions{Class: "interactive"}),
	}
	now := time.Now()
	var commits int64
	commit := func(extents int64) {
		commits++
		for i := int64(0); i < extents; i++ {
			svc.wb.absorb(owners[i%2], 40*i, 40*i+10, v.DiskBlocks(0), now)
		}
		if err := svc.flushDirty(); err != nil {
			t.Fatal(err)
		}
	}
	run := func() { commit(8) }
	run() // warm: the flush scratch, share table and class buckets grown
	if got := testing.AllocsPerRun(100, run); got != 0 {
		t.Errorf("group commit of 8 single-owner extents: %v allocs, budget 0", got)
	}
	for _, o := range owners {
		if tot := o.Totals(); tot.FlushBatches != commits || tot.Requests != int(4*commits) {
			t.Fatalf("session %q credited %d flushes of %d requests, want %d of %d", o.class, tot.FlushBatches, tot.Requests, commits, 4*commits)
		}
	}
	commit(keepFlush + 1)
	if f := svc.scratch.flush; f.entries != nil || f.reqs != nil || f.firsts != nil || f.results != nil {
		t.Errorf("a %d-extent group commit kept its buffers: %d entries, %d extents, %d runs, %d shares",
			keepFlush+1, cap(f.entries), cap(f.reqs), cap(f.firsts), cap(f.results))
	}
	if len(svc.scratch.owners) != 0 || len(svc.scratch.shareOf) != 0 {
		t.Errorf("a group commit left sessions named: %d owners, %d share slots", len(svc.scratch.owners), len(svc.scratch.shareOf))
	}
}

// TestLatencyHistAllocsNothing: recording a latency and reading the
// count and percentiles allocate nothing. (The latency ring the
// histogram replaced copied its 1024-entry window on every snapshot.)
func TestLatencyHistAllocsNothing(t *testing.T) {
	var h LatencyHist
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"Record", func() { h.Record(1.5) }},
		{"Snapshot", func() { h.Snapshot() }},
	} {
		if got := testing.AllocsPerRun(100, op.run); got != 0 {
			t.Errorf("%s: %v allocs, budget 0", op.name, got)
		}
	}
}

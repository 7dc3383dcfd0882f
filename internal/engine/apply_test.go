package engine

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// TestApplyUnderTraffic: six sessions in two classes issue reads and
// writes while another goroutine keeps reconfiguring the service —
// cache size, write-back with a moving watermark, aging, fair share
// with moving weights, the admission window. Every Apply is a barrier
// the loop itself executes, so no op is lost or double-charged across
// one: after Close the session totals, Totals().Attributed and the
// summed ClassTotals agree, and nothing is left dirty. Run under -race:
// the options, cache, dirty buffer and class registry are read by the
// loop without a lock, which is only sound if Apply never writes them
// from the caller's goroutine.
func TestApplyUnderTraffic(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk())
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()

	const clients, rounds = 6, 12
	var done atomic.Bool
	var wg sync.WaitGroup
	sessions := make([]*Session, clients)
	for c := range sessions {
		sessions[c] = svc.NewSession(SessionOptions{MaxInflight: 1 + c%2, Class: []string{"a", "b"}[c%2]})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for q := 0; q < 4 || !done.Load(); q++ {
				if q%3 == 2 {
					if _, err := sessions[c].Write(context.Background(), lvm.SortCoalesce(randomReqs(rng, v, 5)), disk.SchedSPTF); err != nil {
						t.Errorf("client %d write: %v", c, err)
						return
					}
					continue
				}
				chunks := randomChunks(rng, v, 1+rng.Intn(3), 15)
				if _, err := sessions[c].RunPlan(context.Background(), chunkPlan(chunks), Options{}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	for i := 0; i < rounds; i++ {
		for _, o := range []ServiceOptions{
			{CacheBlocks: int64(1024 << (i % 3))},
			{WriteBack: WriteBackOptions{Enabled: true, WatermarkBlocks: int64(16 << (i % 3)), FlushInterval: time.Millisecond}},
			{DeadlineAging: time.Duration(1+i) * time.Millisecond},
			{FairQuantum: int64(16 << (i % 3)), Classes: []QoSClass{{Name: "a", Weight: 1 + i}, {Name: "b", Weight: 4}}},
			{BatchWindow: 20 * time.Microsecond},
		} {
			if err := svc.Apply(o); err != nil {
				t.Fatalf("round %d Apply(%+v): %v", i, o, err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}
	svc.Close() // commits whatever is still buffered

	tot := svc.Totals()
	if tot.DirtyBlocks != 0 || tot.FlushBatches == 0 || tot.WriteOps == 0 {
		t.Fatalf("after Close: %+v", tot)
	}
	var sum, classSum Stats
	for _, s := range sessions {
		sum.Accumulate(s.Totals())
	}
	var deferred int64
	for _, ct := range svc.ClassTotals() {
		classSum.Accumulate(ct.Attributed)
		deferred += ct.Deferred
	}
	att := tot.Attributed
	sum.ElapsedMs, classSum.ElapsedMs, att.ElapsedMs = 0, 0, 0 // documented exception to the sum
	statsClose(sum, att, t)
	statsClose(classSum, att, t)
	for _, got := range []Stats{sum, classSum} {
		if got.FlushBatches != att.FlushBatches || got.Writes != att.Writes || got.InvalidatedBlocks != att.InvalidatedBlocks {
			t.Fatalf("write attribution differs: %+v vs %+v", got, att)
		}
	}
	if att.CacheHits+att.CacheMisses == 0 {
		t.Fatal("the cache Apply configured never saw a probe")
	}
	t.Logf("%d batches, %d merged, %d flushes, %d deferrals", tot.Batches, tot.MergedBatches, tot.FlushBatches, deferred)
}

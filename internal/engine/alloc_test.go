//go:build !race

package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// Allocation budgets for the session↔loop boundary
// (testing.AllocsPerRun cannot run under the race detector, hence the
// build tag; CI has a non-race leg for this file).

// TestRunPlanAllocBudget: a warm single-chunk query costs 9 allocations
// with the cache off — the static plan, the in-flight window, the loop
// goroutine's start and what lvm.ServeBatch allocates for 40 requests —
// and 3 when every request hits the cache (no ServeBatch). The reply
// is a Stats by value and the query plans on this goroutine, so the
// boundary itself adds nothing to that list.
func TestRunPlanAllocBudget(t *testing.T) {
	v := testVolume(t)
	reqs := lvm.SortCoalesce(randomReqs(rand.New(rand.NewSource(1)), v, 40))
	for _, tc := range []struct {
		name   string
		cache  int64
		budget float64
	}{
		{"cache off", 0, 9},
		{"fully cached", 1 << 20, 3},
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
	reqs := lvm.SortCoalesce(randomReqs(rand.New(rand.NewSource(1)), v, 40))
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
	if four > 6 {
		t.Errorf("merged 4-chunk batch: %v allocs, budget 6 (all of them lvm.ServeBatch's)", four)
	}
}

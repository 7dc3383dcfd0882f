//go:build !race

package lvm

import (
	"math/rand"
	"testing"

	"repro/internal/disk"
)

// TestServeBatchAllocs: a warm ServeBatch of up to keepBatch requests
// allocates nothing — the routing state, the per-drive completion
// buffers and the returned completions all live in the volume's
// scratch — on one drive; across two, only the goroutines that serve
// them concurrently allocate (testing.AllocsPerRun cannot
// run under the race detector, hence the build tag; CI has a non-race
// leg for this file). A longer batch allocates its own completions and
// the scratch does not keep them.
func TestServeBatchAllocs(t *testing.T) {
	for _, drives := range []int{1, 2} {
		geoms := make([]*disk.Geometry, drives)
		for i := range geoms {
			geoms[i] = disk.AtlasTenKIII()
		}
		v, err := New(16, geoms...)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(drives)))
		batch := func(n int) []Request {
			reqs := make([]Request, n)
			for i := range reqs {
				reqs[i] = Request{VLBN: rng.Int63n(v.TotalBlocks()/int64(drives)-8) + int64(i%drives)*v.DiskBlocks(0), Count: 1 + rng.Intn(8)}
			}
			return reqs
		}
		reqs := batch(keepBatch)
		serve := func() {
			if _, _, err := v.ServeBatch(reqs, disk.SchedSPTF); err != nil {
				t.Fatal(err)
			}
		}
		serve() // warm
		// Two drives serve concurrently, a goroutine each: those two
		// goroutines and their WaitGroup are all such a batch allocates.
		budget := 0.0
		if drives > 1 {
			budget = 5
		}
		if got := testing.AllocsPerRun(20, serve); got > budget {
			t.Errorf("%d drives: a warm %d-request batch allocates %v times, budget %v", drives, len(reqs), got, budget)
		}
		if _, _, err := v.ServeBatch(batch(4*keepBatch), disk.SchedSPTF); err != nil {
			t.Fatal(err)
		}
		sc := &v.scratch
		for k, c := range sc.comps {
			if cap(c) > keepBatch {
				t.Errorf("%d drives: drive %d's completion buffer keeps %d entries, limit %d", drives, k, cap(c), keepBatch)
			}
		}
		if cap(sc.out) > keepBatch {
			t.Errorf("%d drives: the volume keeps %d completions, limit %d", drives, cap(sc.out), keepBatch)
		}
	}
}

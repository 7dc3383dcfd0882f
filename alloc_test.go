//go:build !race

package multimap

import (
	"context"
	"testing"
)

// TestQueryAllocBudget pins the warm allocations of a public query on a
// 64³ grid on atlas10k3, for the paper's layout and for Naive
// (testing.AllocsPerRun cannot run under the race detector, hence the
// build tag; CI has a non-race leg for this file). A range allocates
// only its plan: the plan itself, which holds its bounds, and the
// request slice the layout expands the box into; a beam adds the box
// BeamBox builds. Every other layer reuses a buffer it owns: a
// one-shard store runs the box on its member unsplit, the session's
// in-flight window is an array, the service loop starts from a bound
// func value, the volume and the drive serve into their scratch and
// slabs. Before the row planner a MultiMap 16³ range cost 802
// allocations and its beam 220; before the buffers were reused, 16 and
// 18 (Naive 13 and 15).
func TestQueryAllocBudget(t *testing.T) {
	vol, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	ctx := context.Background()
	lo, hi := []int{8, 24, 40}, []int{24, 40, 56}
	fixed := []int{5, 0, 9}
	for _, kind := range []Mapping{MultiMap, Naive} {
		s, err := Open(vol, kind, []int{64, 64, 64})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			name   string
			run    func() (Stats, error)
			budget float64
		}{
			{"RangeQuery 16³", func() (Stats, error) { return s.RangeQuery(ctx, lo, hi) }, 2},
			{"Beam along dim 1", func() (Stats, error) { return s.Beam(ctx, 1, fixed) }, 3},
		} {
			run := func() {
				if _, err := q.run(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm
			got := testing.AllocsPerRun(50, run)
			t.Logf("%v %s: %v allocs", kind, q.name, got)
			if got > q.budget {
				t.Errorf("%v %s: %v allocs, budget %v", kind, q.name, got, q.budget)
			}
		}
	}
}

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
//
// Streaming a range adds two: the shard layer's delivery, which numbers
// the chunks, and the one callback that tags them with their shard (6
// when four closures carried a chunk up the layers). A two-part scatter
// on a two-shard store allocates 15 unstreamed (its split, its context,
// its goroutines and each part's plan); streamed it adds the delivery
// and one callback per part, 18 (23 before).
func TestQueryAllocBudget(t *testing.T) {
	vol, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	ctx := context.Background()
	lo, hi := []int{8, 24, 40}, []int{24, 40, 56}
	fixed := []int{5, 0, 9}
	slo, shi := []int{0, 24, 40}, []int{64, 40, 56}
	stream := func(RangeChunk) {}
	for _, kind := range []Mapping{MultiMap, Naive} {
		s, err := Open(vol, kind, []int{64, 64, 64})
		if err != nil {
			t.Fatal(err)
		}
		vol2, err := OpenVolume(AtlasTenKIII)
		if err != nil {
			t.Fatal(err)
		}
		defer vol2.Close()
		s2, err := Open(vol2, kind, []int{64, 64, 64}, WithShards(2))
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		sess, sess2 := s.Begin(), s2.Begin()
		for _, q := range []struct {
			name   string
			run    func() (Stats, error)
			budget float64
		}{
			{"RangeQuery 16³", func() (Stats, error) { return s.RangeQuery(ctx, lo, hi) }, 2},
			{"Beam along dim 1", func() (Stats, error) { return s.Beam(ctx, 1, fixed) }, 3},
			{"RangeQueryStream 16³", func() (Stats, error) { return sess.RangeQueryStream(ctx, lo, hi, stream) }, 4},
			{"RangeQuery two-part scatter", func() (Stats, error) { return sess2.RangeQuery(ctx, slo, shi) }, 15},
			{"RangeQueryStream two-part scatter", func() (Stats, error) { return sess2.RangeQueryStream(ctx, slo, shi, stream) }, 18},
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

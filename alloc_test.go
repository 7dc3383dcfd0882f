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
// BeamBox builds. Every other layer reuses a buffer it owns: the shard
// layer runs a box inside shard 0's slab on its member unsplit and
// splits any other box into pooled scratch, the session's in-flight
// window is an array, the service loop starts from a bound func value,
// the volume and the drive serve into their scratch and slabs. Before
// the row planner a MultiMap 16³ range cost 802 allocations and its
// beam 220; before the buffers were reused, 16 and 18 (Naive 13 and
// 15).
//
// Streaming a range adds nothing: the chunk delivery and the callback
// that tags each chunk with its shard live in the pooled scratch (they
// cost 2 before it, 6 when four closures carried a chunk up the
// layers). On an updatable store a FetchCell allocates its chain's
// request slice and its plan (2) and an Insert the extents it dirtied
// (1): routing the cell allocates nothing (it cost 1 before, copying
// even shard 0's cell).
//
// Each of these rows runs again on a two-shard store, inside shard 1's
// slab, and must allocate exactly what it does on one shard: the one
// part is split, and the cell localized, into pooled scratch. A
// two-part scatter allocates its two parts' plans and the scatter's
// cancellable context, 6, streamed or not: its last part runs on the
// calling goroutine, and each other part starts from a func value the
// scratch holds (15 unstreamed and 18 streamed, when every part had a
// goroutine closure and the split, results and delivery were fresh).
func TestQueryAllocBudget(t *testing.T) {
	ctx := context.Background()
	lo, hi := []int{8, 24, 40}, []int{24, 40, 56}
	lo1, hi1 := []int{40, 24, 40}, []int{56, 40, 56}
	fixed, fixed1 := []int{5, 0, 9}, []int{45, 0, 9}
	cell, cell1 := []int{5, 7, 9}, []int{45, 7, 9}
	slo, shi := []int{0, 24, 40}, []int{64, 40, 56}
	stream := func(RangeChunk) {}
	for _, kind := range []Mapping{MultiMap, Naive} {
		open := func(opts ...Option) *Store {
			vol, err := OpenVolume(AtlasTenKIII)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { vol.Close() })
			s, err := Open(vol, kind, []int{64, 64, 64}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
		s, s2 := open(), open(WithShards(2))
		us := open(Updatable(UpdateOptions{})).Begin()
		us2 := open(WithShards(2), Updatable(UpdateOptions{})).Begin()
		sess, sess2 := s.Begin(), s2.Begin()
		// The shard-1 rows must not scatter: every chunk comes from shard 1.
		if _, err := sess2.RangeQueryStream(ctx, lo1, hi1, func(c RangeChunk) {
			if c.Shard != 1 {
				t.Fatalf("%v: box %v–%v served by shard %d, want 1 alone", kind, lo1, hi1, c.Shard)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct {
			name string
			run  func() (Stats, error)
			// shard1 runs the same op inside shard 1's slab of a
			// two-shard store; nil for a row with no one-shard form.
			shard1 func() (Stats, error)
			budget float64
		}{
			{"RangeQuery 16³",
				func() (Stats, error) { return s.RangeQuery(ctx, lo, hi) },
				func() (Stats, error) { return s2.RangeQuery(ctx, lo1, hi1) }, 2},
			{"Beam along dim 1",
				func() (Stats, error) { return s.Beam(ctx, 1, fixed) },
				func() (Stats, error) { return s2.Beam(ctx, 1, fixed1) }, 3},
			{"RangeQueryStream 16³",
				func() (Stats, error) { return sess.RangeQueryStream(ctx, lo, hi, stream) },
				func() (Stats, error) { return sess2.RangeQueryStream(ctx, lo1, hi1, stream) }, 2},
			{"FetchCell",
				func() (Stats, error) { return us.FetchCell(ctx, cell) },
				func() (Stats, error) { return us2.FetchCell(ctx, cell1) }, 2},
			{"Insert",
				func() (Stats, error) { return us.Insert(ctx, cell) },
				func() (Stats, error) { return us2.Insert(ctx, cell1) }, 1},
			{"RangeQuery two-part scatter",
				func() (Stats, error) { return sess2.RangeQuery(ctx, slo, shi) }, nil, 6},
			{"RangeQueryStream two-part scatter",
				func() (Stats, error) { return sess2.RangeQueryStream(ctx, slo, shi, stream) }, nil, 6},
		} {
			allocs := func(op func() (Stats, error)) float64 {
				run := func() {
					if _, err := op(); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm
				return testing.AllocsPerRun(50, run)
			}
			got := allocs(q.run)
			t.Logf("%v %s: %v allocs", kind, q.name, got)
			if got > q.budget {
				t.Errorf("%v %s: %v allocs, budget %v", kind, q.name, got, q.budget)
			}
			if q.shard1 == nil {
				continue
			}
			if got1 := allocs(q.shard1); got1 != got {
				t.Errorf("%v %s in shard 1 of 2: %v allocs, %v on one shard", kind, q.name, got1, got)
			}
		}
	}
}

// TestMetricsAllocBudget pins what a Store.Metrics snapshot allocates
// on a one-shard store that has served a query, 7: the per-shard queue
// depths, service totals and Metrics.Shards, and the per-class view
// merged across shards. The latency count and percentiles are read
// from the store's histogram in place (the latency ring it replaced
// copied its 1024-entry window, 8 in all).
func TestMetricsAllocBudget(t *testing.T) {
	vol, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	s, err := Open(vol, MultiMap, []int{16, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RangeQuery(context.Background(), []int{0, 0, 0}, []int{4, 4, 4}); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() { s.Metrics() }); got > 7 {
		t.Errorf("Metrics: %v allocs, budget 7", got)
	}
}

package multimap

import (
	"context"
	"math"
	"testing"
)

// TestRangeQueryStreamChunks pins RangeQueryStream's callback contract
// on the paper's layout (MultiMap, whose plans bridge padding) and on
// Naive, unsharded and across two shards: Seq runs 0…n−1 in delivery
// order, every chunk names a shard the box touches (both, on two
// shards), the chunks' Cells, Padding and Requests sum to the returned
// total exactly and their times within rounding (a scatter adds its
// parts in part order, the chunks arrive in service order), and that
// total equals RangeQuery's on an identically built twin store.
func TestRangeQueryStreamChunks(t *testing.T) {
	ctx := context.Background()
	dims := []int{64, 64, 64}
	lo, hi := []int{0, 5, 7}, []int{64, 33, 21}
	open := func(kind Mapping, shards int) *Store {
		t.Helper()
		vol, err := OpenVolume(AtlasTenKIII)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(vol.Close)
		s, err := Open(vol, kind, dims, WithChunkCells(512), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	for _, kind := range []Mapping{MultiMap, Naive} {
		for _, shards := range []int{1, 2} {
			s := open(kind, shards)
			touched := map[int]bool{}
			for d := lo[0]; d < hi[0]; d++ {
				si, err := s.ShardOf([]int{d, lo[1], lo[2]})
				if err != nil {
					t.Fatal(err)
				}
				touched[si] = true
			}
			var chunks []RangeChunk
			st, err := s.Begin().RangeQueryStream(ctx, lo, hi, func(c RangeChunk) { chunks = append(chunks, c) })
			if err != nil {
				t.Fatalf("%v/%d shards: %v", kind, shards, err)
			}
			if len(chunks) < 2 {
				t.Fatalf("%v/%d shards: %d chunks, want a chunked stream", kind, shards, len(chunks))
			}
			var sum Stats
			seen := map[int]bool{}
			for i, c := range chunks {
				if c.Seq != i {
					t.Fatalf("%v/%d shards: chunk %d has Seq %d", kind, shards, i, c.Seq)
				}
				if !touched[c.Shard] {
					t.Fatalf("%v/%d shards: chunk %d from shard %d, which the box does not touch", kind, shards, i, c.Shard)
				}
				seen[c.Shard] = true
				sum.Accumulate(c.Stats)
			}
			if len(seen) != len(touched) {
				t.Fatalf("%v/%d shards: chunks came from shards %v, the box touches %v", kind, shards, seen, touched)
			}
			if sum.Cells != st.Cells || sum.Padding != st.Padding || sum.Requests != st.Requests {
				t.Fatalf("%v/%d shards: chunks sum to cells %d padding %d requests %d, total %d/%d/%d",
					kind, shards, sum.Cells, sum.Padding, sum.Requests, st.Cells, st.Padding, st.Requests)
			}
			for _, ms := range [][2]float64{{sum.TotalMs, st.TotalMs}, {sum.ElapsedMs, st.ElapsedMs}} {
				if math.Abs(ms[0]-ms[1]) > 1e-9*math.Abs(ms[1]) {
					t.Fatalf("%v/%d shards: chunk times sum to %v, total %v", kind, shards, ms[0], ms[1])
				}
			}
			if kind == MultiMap && st.Padding == 0 {
				t.Fatalf("%v/%d shards: no padding bridged; the box no longer exercises the cell conversion", kind, shards)
			}
			want, err := open(kind, shards).RangeQuery(ctx, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if st != want {
				t.Fatalf("%v/%d shards: streamed total %+v != RangeQuery %+v", kind, shards, st, want)
			}
			t.Logf("%v/%d shards: %d chunks, %d cells, %d padding", kind, shards, len(chunks), st.Cells, st.Padding)
		}
	}
}

// TestCellUnits pins the two units of Cells: a query's Stats count the
// useful cells fetched, while the session's lifetime Stats and the
// service's Attributed count every block read, so over the session's
// queries Σ(Cells + Padding) equals both, exactly.
func TestCellUnits(t *testing.T) {
	vol, err := OpenVolume(AtlasTenKIII)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Close()
	s, err := Open(vol, MultiMap, []int{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	sess := s.Begin()
	var cells, padding int64
	for _, box := range [][2][]int{
		{{0, 0, 0}, {64, 64, 32}},
		{{8, 24, 40}, {24, 40, 56}},
		{{3, 5, 7}, {61, 33, 21}},
	} {
		st, err := sess.RangeQuery(context.Background(), box[0], box[1])
		if err != nil {
			t.Fatal(err)
		}
		cells += st.Cells
		padding += st.Padding
	}
	if padding == 0 {
		t.Fatal("no padding bridged; the boxes do not tell the units apart")
	}
	if got := sess.Stats().Cells; got != cells+padding {
		t.Fatalf("session Stats().Cells %d, want Σ(Cells + Padding) = %d + %d", got, cells, padding)
	}
	if got := vol.ServiceTotals().Attributed.Cells; got != cells+padding {
		t.Fatalf("Attributed.Cells %d, want Σ(Cells + Padding) = %d + %d", got, cells, padding)
	}
	t.Logf("queries: %d cells + %d padding; session and Attributed: %d blocks", cells, padding, cells+padding)
}

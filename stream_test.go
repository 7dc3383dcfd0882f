package multimap

import (
	"context"
	"math"
	"sync"
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

// TestCellUnits pins the one unit of Cells: every Stats, a query's and
// a total's alike, counts useful cells in Cells and the blocks bridged
// by gap padding in Padding. So Σ query Cells equals the sessions'
// Stats().Cells and the service's Attributed.Cells, and Σ query Padding
// equals each total's Padding, exactly. The lone row serves one
// session's three ranges in order; the concurrent row serves them on
// four sessions at once over one cached store, with chunks in flight
// together, so the identity holds whatever batches the loop merges and
// whichever requests the cache answers.
func TestCellUnits(t *testing.T) {
	boxes := [][2][]int{
		{{0, 0, 0}, {64, 64, 32}},
		{{8, 24, 40}, {24, 40, 56}},
		{{3, 5, 7}, {61, 33, 21}},
	}
	for _, tc := range []struct {
		name     string
		sessions int
		opts     []Option
		// cells and padding are the lone session's sums, pinned; 0
		// leaves them unpinned.
		cells, padding int64
	}{
		{name: "lone", sessions: 1, cells: 157904, padding: 4417},
		{name: "concurrent", sessions: 4, opts: []Option{WithCache(1 << 16), WithChunkCells(2048), WithMaxInflight(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vol, err := OpenVolume(AtlasTenKIII)
			if err != nil {
				t.Fatal(err)
			}
			defer vol.Close()
			s, err := Open(vol, MultiMap, []int{64, 64, 64}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sessions := make([]*Session, tc.sessions)
			queries := make([]Stats, tc.sessions) // each session's queries, summed
			errs := make([]error, tc.sessions)
			var wg sync.WaitGroup
			for i := range sessions {
				sessions[i] = s.Begin()
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for _, box := range boxes {
						st, err := sessions[i].RangeQuery(context.Background(), box[0], box[1])
						if err != nil {
							errs[i] = err
							return
						}
						queries[i].Accumulate(st)
					}
				}(i)
			}
			wg.Wait()
			var q, totals Stats
			for i, sess := range sessions {
				if errs[i] != nil {
					t.Fatalf("session %d: %v", i, errs[i])
				}
				q.Accumulate(queries[i])
				totals.Accumulate(sess.Stats())
			}
			if q.Padding == 0 {
				t.Fatal("no padding bridged; the boxes do not tell cells from blocks read")
			}
			if tc.cells != 0 && (q.Cells != tc.cells || q.Padding != tc.padding) {
				t.Fatalf("queries: %d cells, %d padding, want %d and %d", q.Cells, q.Padding, tc.cells, tc.padding)
			}
			tot := vol.ServiceTotals()
			for _, c := range []struct {
				name string
				st   Stats
			}{{"sessions' Stats()", totals}, {"Attributed", tot.Attributed}} {
				if c.st.Cells != q.Cells || c.st.Padding != q.Padding {
					t.Fatalf("%s: %d cells, %d padding; the queries: %d and %d", c.name, c.st.Cells, c.st.Padding, q.Cells, q.Padding)
				}
			}
			t.Logf("%d sessions: %d cells, %d padding; %d batches, %d merged, %d cache hits",
				tc.sessions, q.Cells, q.Padding, tot.Batches, tot.MergedBatches, tot.Attributed.CacheHits)
		})
	}
}

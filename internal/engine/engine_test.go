package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

func testVolume(t testing.TB, geoms ...*disk.Geometry) *lvm.Volume {
	t.Helper()
	if len(geoms) == 0 {
		geoms = []*disk.Geometry{disk.SmallTestDisk()}
	}
	v, err := lvm.New(16, geoms...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// coalescedReqs is randomReqs sorted and merged as a planner issues them.
func coalescedReqs(rng *rand.Rand, v *lvm.Volume, n int) []lvm.Request {
	reqs, _ := lvm.Coalesce(randomReqs(rng, v, n), 0)
	return reqs
}

func randomReqs(rng *rand.Rand, v *lvm.Volume, n int) []lvm.Request {
	reqs := make([]lvm.Request, n)
	for i := range reqs {
		reqs[i] = lvm.Request{VLBN: rng.Int63n(v.TotalBlocks() - 4), Count: 1 + rng.Intn(4)}
		di, lbn, _ := v.Locate(reqs[i].VLBN)
		if over := lbn + int64(reqs[i].Count) - v.DiskBlocks(di); over > 0 {
			reqs[i].VLBN -= over
		}
	}
	return reqs
}

// execute serves one prepared batch under one policy on a lone session.
func execute(v *lvm.Volume, reqs []lvm.Request, policy disk.SchedPolicy) (Stats, error) {
	return OnVolume(v).RunPlan(context.Background(), Static(reqs, policy), Options{})
}

func TestExecuteMatchesDirectServe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vEng := testVolume(t)
	vRef := testVolume(t)
	reqs := randomReqs(rng, vEng, 200)

	st, err := execute(vEng, reqs, disk.SchedSPTF)
	if err != nil {
		t.Fatal(err)
	}
	comps, elapsed, err := vRef.ServeBatch(reqs, disk.SchedSPTF)
	if err != nil {
		t.Fatal(err)
	}
	var want Stats
	want.AddCompletions(comps, elapsed)
	if st != want {
		t.Fatalf("engine stats %+v differ from direct serve %+v", st, want)
	}
	if sum := st.CommandMs + st.SeekMs + st.RotateMs + st.TransferMs; math.Abs(sum-st.TotalMs) > 1e-6 {
		t.Errorf("component sum %.4f != total %.4f", sum, st.TotalMs)
	}
}

func TestRunStreamsChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := testVolume(t)
	reqs := randomReqs(rng, v, 90)

	// A three-chunk plan must aggregate the same blocks as one static
	// chunk, count its useful cells (the blocks less the padding) and
	// price every completion in some chunk's Stats; the session's
	// totals count in the same unit.
	chunks := []Chunk{
		{Reqs: reqs[:30], Policy: disk.SchedSPTF, Padding: 1},
		{Reqs: reqs[30:60], Policy: disk.SchedFIFO, Padding: 2},
		{Reqs: reqs[60:], Policy: disk.SchedSPTF},
	}
	i := 0
	p := planFunc(func() (Chunk, bool, error) {
		if i == len(chunks) {
			return Chunk{}, false, nil
		}
		i++
		return chunks[i-1], true, nil
	})
	var priced, calls int
	sess := OnVolume(v)
	st, err := sess.RunPlan(context.Background(), p, Options{OnChunk: func(d Stats) { priced += d.Requests; calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for _, r := range reqs {
		blocks += int64(r.Count)
	}
	if st.Cells != blocks-3 {
		t.Errorf("streamed stats cover %d cells, want %d", st.Cells, blocks-3)
	}
	if st.Padding != 3 {
		t.Errorf("padding %d, want 3", st.Padding)
	}
	if priced != len(reqs) || calls != len(chunks) {
		t.Errorf("OnChunk saw %d completions in %d calls, want %d in %d", priced, calls, len(reqs), len(chunks))
	}
	if tot := sess.Totals(); tot != st {
		t.Errorf("session totals %+v, the query %+v", tot, st)
	}
}

// planFunc adapts a closure to the Plan interface.
type planFunc func() (Chunk, bool, error)

func (f planFunc) Next() (Chunk, bool, error) { return f() }

// TestExecuteMultiDiskConcurrent exercises the per-disk goroutines of
// the volume layer through a lone session; run with -race to verify
// drive isolation.
func TestExecuteMultiDiskConcurrent(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk(), disk.SmallTestDisk())
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 4; round++ {
		reqs := randomReqs(rng, v, 240)
		st, err := execute(v, reqs, disk.SchedSPTF)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != len(reqs) {
			t.Fatalf("round %d: %d completions for %d requests", round, st.Requests, len(reqs))
		}
		if st.ElapsedMs <= 0 || st.ElapsedMs > st.TotalMs {
			t.Fatalf("round %d: elapsed %.3f outside (0, %.3f]: disks not parallel",
				round, st.ElapsedMs, st.TotalMs)
		}
	}
}

func TestStatsMsPerCell(t *testing.T) {
	if (Stats{}).MsPerCell() != 0 {
		t.Error("MsPerCell of empty stats should be 0")
	}
	s := Stats{Cells: 4, TotalMs: 10}
	if s.MsPerCell() != 2.5 {
		t.Errorf("MsPerCell = %v, want 2.5", s.MsPerCell())
	}
}

// BenchmarkExecuteSPTF measures the full plan-free execution path — a
// lone session's submission, routing, scheduling, and aggregation —
// across batch sizes spanning 1e3 to 1e5 requests on the paper's
// primary drive.
func BenchmarkExecuteSPTF(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			v := testVolume(b, disk.AtlasTenKIII())
			rng := rand.New(rand.NewSource(7))
			// A compact band, like a MultiMap window set.
			base := rng.Int63n(v.TotalBlocks() / 2)
			reqs := make([]lvm.Request, n)
			for i := range reqs {
				reqs[i] = lvm.Request{VLBN: base + rng.Int63n(400_000), Count: 1}
			}
			sess := OnVolume(v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExecuteFIFO is the sequential-issue baseline at the same
// batch sizes.
func BenchmarkExecuteFIFO(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			v := testVolume(b, disk.AtlasTenKIII())
			reqs := make([]lvm.Request, n)
			for i := range reqs {
				reqs[i] = lvm.Request{VLBN: int64(i) * 16, Count: 8}
			}
			sess := OnVolume(v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedFIFO), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLatencyHist pins the latency record's contract: the zero value
// reads zeroes and the count is exact; p50 and p99 are within 1/32
// (plus 1 µs) of Percentile over the same samples; a 0 ms record reads
// back above 0; a record past the top bucket is clamped and counted;
// and under concurrent writers a polling reader never sees the count
// fall (run it under -race).
func TestLatencyHist(t *testing.T) {
	var h LatencyHist
	if n, p50, p99 := h.Snapshot(); n != 0 || p50 != 0 || p99 != 0 {
		t.Fatalf("zero value = %d, %v, %v; want zeroes", n, p50, p99)
	}
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 20000)
	for i := range samples {
		samples[i] = 1e-3 * math.Pow(1e7, rng.Float64()) // 1 µs to 10 s, log-uniform
		h.Record(samples[i])
	}
	slices.Sort(samples)
	n, p50, p99 := h.Snapshot()
	if n != int64(len(samples)) {
		t.Fatalf("count %d after %d records", n, len(samples))
	}
	for _, c := range []struct{ q, got float64 }{{0.50, p50}, {0.99, p99}} {
		if want := Percentile(samples, c.q); math.Abs(c.got-want) > want/32+1e-3 {
			t.Errorf("p%g = %v ms, Percentile gives %v ms: off by more than 1/32 + 1 µs", 100*c.q, c.got, want)
		}
	}

	var zero LatencyHist
	zero.Record(0)
	if n, p50, p99 := zero.Snapshot(); n != 1 || p50 <= 0 || p99 <= 0 {
		t.Errorf("one 0 ms record reads %d, %v, %v; want 1 and percentiles above 0", n, p50, p99)
	}

	var top LatencyHist
	top.Record(1e12) // about 32 years
	top.Record(math.Inf(1))
	top.Record(math.NaN())
	if n, p50, p99 := top.Snapshot(); n != 3 || p50 != histMidMs(histBuckets-1) || p99 != p50 {
		t.Errorf("three records past the top bucket (or NaN) read %d, %v, %v; want 3 and the top bucket's midpoint %v",
			n, p50, p99, histMidMs(histBuckets-1))
	}

	var live LatencyHist
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				live.Record(float64(i % 97))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		n, _, _ := live.Snapshot()
		if n < last {
			t.Fatalf("count fell from %d to %d", last, n)
		}
		last = n
	}
	if last != 40000 {
		t.Fatalf("count %d after 4 writers of 10 000 records", last)
	}
}

// TestPercentile table-tests Percentile against the three bodies it
// replaced: tenantsPctl (same arithmetic, so ==), percentileSorted and
// mmbench's percentile (both a(1-f)+bf, equal up to rounding;
// percentileSorted indexed out of range on an empty sample, where the
// others — and Percentile — return 0).
func TestPercentile(t *testing.T) {
	tenantsPctl := func(sorted []float64, p float64) float64 {
		n := len(sorted)
		if n == 0 {
			return 0
		}
		rank := p * float64(n-1)
		lo := int(math.Floor(rank))
		if lo >= n-1 {
			return sorted[n-1]
		}
		return sorted[lo] + (rank-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	percentileSorted := func(sorted []float64, q float64) float64 {
		n := len(sorted)
		if n == 1 {
			return sorted[0]
		}
		rank := q * float64(n-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			return sorted[lo]
		}
		frac := rank - float64(lo)
		return sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	remotePercentile := func(s []float64, q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		rank := q * float64(len(s)-1)
		i := int(rank)
		if i >= len(s)-1 {
			return s[len(s)-1]
		}
		frac := rank - float64(i)
		return s[i]*(1-frac) + s[i+1]*frac
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }
	for _, tc := range []struct {
		sample []float64
		q      float64
		want   float64
	}{
		{nil, 0, 0}, {nil, 0.5, 0}, {nil, 0.99, 0}, {nil, 1, 0},
		{[]float64{7}, 0, 7}, {[]float64{7}, 0.5, 7}, {[]float64{7}, 0.99, 7}, {[]float64{7}, 1, 7},
		{[]float64{1, 3}, 0, 1}, {[]float64{1, 3}, 0.5, 2}, {[]float64{1, 3}, 0.99, 2.98}, {[]float64{1, 3}, 1, 3},
		{[]float64{0.1, 0.2, 0.4, 0.8, 1.6}, 0.5, 0.4}, {[]float64{0.1, 0.2, 0.4, 0.8, 1.6}, 0.99, 1.568},
	} {
		got := Percentile(tc.sample, tc.q)
		if !near(got, tc.want) {
			t.Errorf("Percentile(%v, %v) = %v, want %v", tc.sample, tc.q, got, tc.want)
		}
		if ref := tenantsPctl(tc.sample, tc.q); got != ref {
			t.Errorf("Percentile(%v, %v) = %v, tenantsPctl gave %v", tc.sample, tc.q, got, ref)
		}
		if ref := remotePercentile(tc.sample, tc.q); !near(got, ref) {
			t.Errorf("Percentile(%v, %v) = %v, mmbench percentile gave %v", tc.sample, tc.q, got, ref)
		}
		if len(tc.sample) > 0 {
			if ref := percentileSorted(tc.sample, tc.q); !near(got, ref) {
				t.Errorf("Percentile(%v, %v) = %v, percentileSorted gave %v", tc.sample, tc.q, got, ref)
			}
		}
	}
}

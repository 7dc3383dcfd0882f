package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// chunkPlan replays a fixed chunk sequence (fresh cursor per plan).
func chunkPlan(chunks []Chunk) Plan {
	i := 0
	return planFunc(func() (Chunk, bool, error) {
		if i == len(chunks) {
			return Chunk{}, false, nil
		}
		i++
		return chunks[i-1], true, nil
	})
}

func randomChunks(rng *rand.Rand, v *lvm.Volume, nChunks, perChunk int) []Chunk {
	chunks := make([]Chunk, nChunks)
	for i := range chunks {
		policy := disk.SchedSPTF
		if i%2 == 1 {
			policy = disk.SchedFIFO
		}
		chunks[i] = Chunk{
			Reqs:    coalescedReqs(rng, v, perChunk),
			Policy:  policy,
			Padding: int64(i % 3),
		}
	}
	return chunks
}

// statsClose compares two stats up to floating-point attribution drift.
func statsClose(a, b Stats, tb testing.TB) {
	tb.Helper()
	if a.Cells != b.Cells || a.Padding != b.Padding || a.Requests != b.Requests ||
		a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses ||
		a.Writes != b.Writes || a.InvalidatedBlocks != b.InvalidatedBlocks ||
		a.CoalescedWrites != b.CoalescedWrites || a.FlushBatches != b.FlushBatches {
		tb.Fatalf("integer stats differ: %+v vs %+v", a, b)
	}
	for _, p := range [][2]float64{
		{a.TotalMs, b.TotalMs}, {a.CommandMs, b.CommandMs}, {a.SeekMs, b.SeekMs},
		{a.RotateMs, b.RotateMs}, {a.TransferMs, b.TransferMs},
	} {
		if diff := math.Abs(p[0] - p[1]); diff > 1e-6*(1+math.Abs(p[0])) {
			tb.Fatalf("float stats differ by %g: %+v vs %+v", diff, a, b)
		}
	}
}

// TestServiceConcurrentSessions runs many goroutines' worth of mixed
// plans through one service (run with -race): each session must be
// credited exactly its own useful cells (its blocks less its chunks'
// padding), and the per-session Stats must sum to the service loop's
// attributed totals.
func TestServiceConcurrentSessions(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk(), disk.SmallTestDisk())
	svc := NewService(v, ServiceOptions{CacheBlocks: 4096})
	defer svc.Close()

	const clients = 8
	var wg sync.WaitGroup
	sessions := make([]*Session, clients)
	wantCells := make([]int64, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		sessions[i] = svc.NewSession(SessionOptions{MaxInflight: 1 + i%3})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			for q := 0; q < 6; q++ {
				chunks := randomChunks(rng, v, 1+rng.Intn(3), 30)
				for _, c := range chunks {
					for _, r := range c.Reqs {
						wantCells[i] += int64(r.Count)
					}
					wantCells[i] -= c.Padding
				}
				st, err := sessions[i].RunPlan(context.Background(), chunkPlan(chunks), Options{})
				if err != nil {
					errs[i] = err
					return
				}
				if st.Requests+int(st.CacheHits) == 0 {
					errs[i] = fmt.Errorf("query credited no work: %+v", st)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	var sum Stats
	for i, s := range sessions {
		st := s.Totals()
		if st.Cells != wantCells[i] {
			t.Errorf("session %d credited %d cells, want %d", i, st.Cells, wantCells[i])
		}
		sum.Accumulate(st)
	}
	tot := svc.Totals()
	// ElapsedMs is per-batch for the loop but per-chunk for sessions, so
	// align it before the exact comparison.
	sum.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(sum, tot.Attributed, t)
	if tot.Batches == 0 || tot.IssuedRequests == 0 {
		t.Fatalf("service served nothing: %+v", tot)
	}
	if sum.TotalMs <= 0 {
		t.Fatal("no simulated time attributed")
	}
}

// TestAttributionSumsConcurrent runs concurrent mixed read/write
// sessions (run with -race) and asserts the attribution-sum invariant
// — summed per-session Stats == ServiceTotals.Attributed == summed
// ClassTotals, ElapsedMs aside — with the cache off, on, and on with
// write-back, under GOMAXPROCS 1 and 4.
func TestAttributionSumsConcurrent(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, cfg := range []struct {
			name   string
			cache  int64
			wrBack bool
		}{
			{"plain", 0, false},
			{"cache", 1 << 22, false},
			{"cache+wb", 1 << 22, true},
		} {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, cfg.name), func(t *testing.T) {
				old := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(old)
				attributionWorkload(t, cfg.cache, cfg.wrBack)
			})
		}
	}
}

func attributionWorkload(t *testing.T, cacheBlocks int64, writeBack bool) {
	t.Helper()
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk(), disk.SmallTestDisk())
	opts := ServiceOptions{CacheBlocks: cacheBlocks}
	if writeBack {
		opts.WriteBack = WriteBackOptions{Enabled: true}
	}
	svc := NewService(v, opts)
	defer svc.Close()

	const clients = 6
	var wg sync.WaitGroup
	sums := make([]Stats, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			sess := svc.NewSession(SessionOptions{MaxInflight: 2, Class: fmt.Sprintf("c%d", c%2)})
			for q := 0; q < 6; q++ {
				chunks := randomChunks(rng, v, 4, 25)
				if _, err := sess.RunPlan(context.Background(), chunkPlan(chunks), Options{}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				if q%2 == 1 {
					if _, err := sess.Write(context.Background(), coalescedReqs(rng, v, 6), disk.SchedSPTF); err != nil {
						t.Errorf("client %d write: %v", c, err)
						return
					}
				}
			}
			if err := sess.Flush(context.Background()); err != nil {
				t.Errorf("client %d flush: %v", c, err)
			}
			// Flush credits land in lifetime totals, not RunPlan returns,
			// so the session's totals are its contribution.
			sums[c] = sess.Totals()
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	svc.Close() // drain everything, including the final write-back flush

	var sum, classSum Stats
	for c := range sums {
		sum.Accumulate(sums[c])
	}
	for _, ct := range svc.ClassTotals() {
		classSum.Accumulate(ct.Attributed)
	}
	att := svc.Totals().Attributed
	sum.ElapsedMs, classSum.ElapsedMs, att.ElapsedMs = 0, 0, 0 // documented exception to the sum
	statsClose(sum, att, t)
	statsClose(classSum, att, t)
	for _, got := range []Stats{sum, classSum} {
		if got.FlushBatches != att.FlushBatches || got.CowFaultBlocks != att.CowFaultBlocks {
			t.Fatalf("write-back attribution differs: %+v vs %+v", got, att)
		}
	}
}

// TestServeMergedAttribution drives the cross-query coalescing path
// directly: overlapping, adjacent, identical, and disjoint requests
// from two queries must merge into shared extents whose costs are split
// back in proportion to the blocks each query asked for.
func TestServeMergedAttribution(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()

	mk := func(reqs ...lvm.Request) *serviceOp {
		return &serviceOp{
			kind:  opChunk,
			chunk: Chunk{Reqs: reqs, Policy: disk.SchedSPTF},
			reply: make(chan opResult, 1),
		}
	}
	a := mk(
		lvm.Request{VLBN: 1000, Count: 16}, // overlaps b's first
		lvm.Request{VLBN: 5000, Count: 8},  // identical to b's second
		lvm.Request{VLBN: 9000, Count: 4},  // disjoint
	)
	b := mk(
		lvm.Request{VLBN: 1008, Count: 16}, // overlaps a's first
		lvm.Request{VLBN: 5000, Count: 8},
		lvm.Request{VLBN: 1024, Count: 8}, // adjacent to the merged [1000,1024)
	)
	svc.serveMerged([]*serviceOp{a, b})
	ra, rb := <-a.reply, <-b.reply
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	// Extents: [1000,1032) from three requests, [5000,5008) shared,
	// [9000,9004) alone.
	tot := svc.Totals()
	if tot.IssuedRequests != 3 {
		t.Fatalf("issued %d extents, want 3", tot.IssuedRequests)
	}
	if tot.Batches != 1 || tot.MergedBatches != 1 || tot.MaxBatchChunks != 2 {
		t.Fatalf("batch bookkeeping wrong: %+v", tot)
	}
	stA, stB := ra.stats, rb.stats
	if stA.Cells != 16+8+4 || stB.Cells != 16+8+8 {
		t.Fatalf("cells credited A=%d B=%d, want 28 and 32", stA.Cells, stB.Cells)
	}
	if stA.Requests != 3 || stB.Requests != 3 {
		t.Fatalf("requests credited A=%d B=%d, want 3 and 3", stA.Requests, stB.Requests)
	}
	// The attributed shares must sum to the actual disk time.
	var sum Stats
	sum.Accumulate(stA)
	sum.Accumulate(stB)
	sum.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(sum, tot.Attributed, t)
	var diskMs float64
	for _, ds := range v.Stats() {
		diskMs += ds.BusyMs
	}
	if diff := math.Abs(diskMs - sum.TotalMs); diff > 1e-6*(1+diskMs) {
		t.Fatalf("attributed %.6f ms != disk busy %.6f ms", sum.TotalMs, diskMs)
	}
	// An identical request must cost each query half the extent: two
	// one-request ops, so each op's price is its share of that extent.
	c, d := mk(lvm.Request{VLBN: 5000, Count: 8}), mk(lvm.Request{VLBN: 5000, Count: 8})
	svc.serveMerged([]*serviceOp{c, d})
	rc, rd := <-c.reply, <-d.reply
	if rc.err != nil || rd.err != nil {
		t.Fatal(rc.err, rd.err)
	}
	if rc.stats.TotalMs <= 0 || rc.stats != rd.stats {
		t.Fatalf("shared extent split unevenly: %+v vs %+v", rc.stats, rd.stats)
	}
	if got := svc.Totals().IssuedRequests; got != 4 {
		t.Fatalf("issued %d extents after the identical pair, want 4", got)
	}
}

// TestServeMergedRespectsDiskBoundaries: adjacent requests from two
// queries that touch across a disk-segment boundary must not merge into
// one extent (which the volume would reject).
func TestServeMergedRespectsDiskBoundaries(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk())
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()
	edge := v.DiskBlocks(0)
	a := &serviceOp{kind: opChunk, reply: make(chan opResult, 1),
		chunk: Chunk{Reqs: []lvm.Request{{VLBN: edge - 8, Count: 8}}, Policy: disk.SchedSPTF}}
	b := &serviceOp{kind: opChunk, reply: make(chan opResult, 1),
		chunk: Chunk{Reqs: []lvm.Request{{VLBN: edge, Count: 8}}, Policy: disk.SchedSPTF}}
	svc.serveMerged([]*serviceOp{a, b})
	ra, rb := <-a.reply, <-b.reply
	if ra.err != nil || rb.err != nil {
		t.Fatal(ra.err, rb.err)
	}
	if tot := svc.Totals(); tot.IssuedRequests != 2 {
		t.Fatalf("issued %d requests, want 2 (no cross-disk merge)", tot.IssuedRequests)
	}
	if ra.stats.Requests != 1 || rb.stats.Requests != 1 || ra.stats.Cells != 8 || rb.stats.Cells != 8 {
		t.Fatalf("each op should be charged its own request: %+v / %+v", ra.stats, rb.stats)
	}
	for di, ds := range v.Stats() {
		if ds.Requests != 1 || ds.Blocks != 8 {
			t.Fatalf("disk %d served %d requests / %d blocks, want 1 / 8 (one op's request each)", di, ds.Requests, ds.Blocks)
		}
	}
}

// TestServiceExtentCache: a repeated plan must be served from the cache
// the second time — zero disk time, full hit accounting.
func TestServiceExtentCache(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{CacheBlocks: 1 << 20})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	reqs := []lvm.Request{{VLBN: 100, Count: 8}, {VLBN: 400, Count: 16}, {VLBN: 900, Count: 4}}

	first, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != 3 || first.Requests != 3 {
		t.Fatalf("cold run accounting wrong: %+v", first)
	}
	second, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 3 || second.CacheMisses != 0 || second.Requests != 0 {
		t.Fatalf("warm run accounting wrong: %+v", second)
	}
	if second.TotalMs != 0 || second.Cells != first.Cells {
		t.Fatalf("warm run should cost nothing and credit %d cells: %+v", first.Cells, second)
	}
	// A sub-extent of a cached extent hits too.
	sub, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 404, Count: 4}}, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.CacheHits != 1 || sub.Cells != 4 {
		t.Fatalf("contained request missed the cache: %+v", sub)
	}
}

// TestExtentCacheEviction exercises the LRU bound and extent merging
// directly.
func TestExtentCacheEviction(t *testing.T) {
	c := newExtentCache(100)
	c.insert(0, 40)
	c.insert(100, 140)
	c.insert(200, 240) // over capacity: evicts [0,40), the LRU
	if c.used != 80 {
		t.Fatalf("used %d blocks, want 80", c.used)
	}
	if c.covered(0, 40) {
		t.Fatal("evicted extent still reported cached")
	}
	if !c.covered(100, 140) || !c.covered(200, 240) {
		t.Fatal("recent extents missing")
	}
	// An extent larger than the whole cache is not admitted.
	c.insert(1000, 2000)
	if c.covered(1000, 1001) {
		t.Fatal("oversized extent admitted")
	}

	// Overlap and adjacency merge into one extent.
	c = newExtentCache(200)
	c.insert(100, 140)
	c.insert(200, 240)
	c.insert(140, 160) // adjacent to [100,140)
	c.insert(150, 200) // bridges to [200,240)
	if n := len(c.extents()); n != 1 || !c.covered(100, 240) {
		t.Fatalf("extents did not merge: %d extents, used %d", n, c.used)
	}
	if c.used != 140 {
		t.Fatalf("merged used %d blocks, want 140", c.used)
	}

	// A merge whose union would exceed the whole cache is skipped: the
	// existing neighbours must survive rather than be evicted through.
	c = newExtentCache(100)
	c.insert(0, 60)
	c.insert(100, 140)
	c.insert(60, 100) // union [0,140) = 140 > 100: not cached
	if !c.covered(0, 60) || !c.covered(100, 140) {
		t.Fatal("oversized merge evicted its neighbours")
	}
	if c.covered(60, 100) || c.used != 100 {
		t.Fatalf("oversized merge was cached anyway (used %d)", c.used)
	}
}

// TestExtentCacheInvalidate exercises write-aware invalidation: full
// drops, trims, straddling splits, and recency preservation.
func TestExtentCacheInvalidate(t *testing.T) {
	c := newExtentCache(1000)
	c.insert(100, 200)
	c.insert(300, 400)
	c.insert(500, 600)

	// Fully covered extent drops.
	if got := c.invalidate(300, 400); got != 100 {
		t.Fatalf("invalidated %d blocks, want 100", got)
	}
	if c.covered(300, 301) || c.used != 200 {
		t.Fatalf("extent survived full invalidation (used %d)", c.used)
	}

	// A range straddling the middle splits the extent in two.
	if got := c.invalidate(130, 150); got != 20 {
		t.Fatalf("invalidated %d blocks, want 20", got)
	}
	if !c.covered(100, 130) || !c.covered(150, 200) {
		t.Fatal("split remnants missing")
	}
	if c.covered(130, 131) || c.covered(125, 155) {
		t.Fatal("invalidated gap still reported covered")
	}
	if c.used != 180 {
		t.Fatalf("used %d blocks after split, want 180", c.used)
	}

	// Overlapping several extents: trim edges, keep the outside.
	if got := c.invalidate(190, 520); got != 30 {
		t.Fatalf("invalidated %d blocks, want 30 (10 + 20)", got)
	}
	if !c.covered(150, 190) || !c.covered(520, 600) {
		t.Fatal("trimmed remnants missing")
	}
	if c.covered(195, 196) || c.covered(505, 506) {
		t.Fatal("trimmed ranges still covered")
	}

	// A miss range invalidates nothing.
	if got := c.invalidate(700, 800); got != 0 {
		t.Fatalf("invalidated %d blocks in empty range", got)
	}

	// Remnants keep their LRU position: filling the cache must evict
	// the oldest remnant first, not a fresh insert.
	c = newExtentCache(100)
	c.insert(0, 60)      // oldest
	c.insert(100, 140)   // newer
	c.invalidate(20, 40) // splits [0,60) into two remnants, same recency
	c.insert(200, 240)   // 40+40+40+... = 120 > 100: evicts LRU remnants
	if !c.covered(100, 140) || !c.covered(200, 240) {
		t.Fatal("newer extents evicted instead of the old remnants")
	}
}

// TestServiceWriteInvalidates: a write op must drop exactly the cached
// extents overlapping its ranges, charge real I/O to the session, and
// force the next read of those blocks back to the disks.
func TestServiceWriteInvalidates(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{CacheBlocks: 1 << 20})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	reqs := []lvm.Request{{VLBN: 100, Count: 8}, {VLBN: 400, Count: 16}}
	if _, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}

	// Write over the second extent only.
	wst, err := sess.Write(context.Background(), []lvm.Request{{VLBN: 404, Count: 4}}, disk.SchedSPTF)
	if err != nil {
		t.Fatal(err)
	}
	if wst.Writes != 4 || wst.Requests != 1 || wst.TotalMs <= 0 {
		t.Fatalf("write not charged: %+v", wst)
	}
	// Only the dirtied blocks drop; the clean remnants [400,404) and
	// [408,416) stay cached (they still hold valid data).
	if wst.InvalidatedBlocks != 4 {
		t.Fatalf("invalidated %d blocks, want exactly the dirtied range (4)", wst.InvalidatedBlocks)
	}
	if wst.Cells != 0 {
		t.Fatalf("write blocks credited as cells: %+v", wst)
	}

	// First extent still hits; the written one must miss again.
	st, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("post-write read: hits=%d misses=%d, want 1/1: %+v", st.CacheHits, st.CacheMisses, st)
	}

	tot := svc.Totals()
	if tot.WriteOps != 1 || tot.InvalidatedBlocks != 4 {
		t.Fatalf("service write bookkeeping wrong: %+v", tot)
	}
	if tot.Attributed.Writes != 4 {
		t.Fatalf("attributed writes %d, want 4", tot.Attributed.Writes)
	}
	// The session's lifetime totals must reproduce the attributed sum.
	lt := sess.Totals()
	lt.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(lt, tot.Attributed, t)
	if lt.Writes != tot.Attributed.Writes || lt.InvalidatedBlocks != tot.Attributed.InvalidatedBlocks {
		t.Fatalf("write fields differ: session %+v vs attributed %+v", lt, tot.Attributed)
	}
}

// TestServiceBatchReadsBeforeWrites pins the documented ordering policy:
// within one admission batch, read chunks are served before writes, so
// a read admitted with a conflicting write linearizes before it (and
// the write's invalidation lands after the read primed the cache).
func TestServiceBatchReadsBeforeWrites(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{CacheBlocks: 1 << 20})
	defer svc.Close()

	read := &serviceOp{
		kind:  opChunk,
		chunk: Chunk{Reqs: []lvm.Request{{VLBN: 100, Count: 8}}, Policy: disk.SchedSPTF},
		reply: make(chan opResult, 1),
	}
	write := &serviceOp{
		kind:  opWrite,
		chunk: Chunk{Reqs: []lvm.Request{{VLBN: 100, Count: 8}}, Policy: disk.SchedSPTF},
		reply: make(chan opResult, 1),
	}
	// Write submitted BEFORE the read, same admission batch: the read
	// must still be served first (miss — nothing cached yet), then the
	// write invalidates what the read just cached.
	svc.process([]*serviceOp{write, read})
	rr, rw := <-read.reply, <-write.reply
	if rr.err != nil || rw.err != nil {
		t.Fatal(rr.err, rw.err)
	}
	if rr.stats.CacheHits != 0 || rr.stats.CacheMisses != 1 {
		t.Fatalf("read in mixed batch: hits=%d misses=%d, want 0/1", rr.stats.CacheHits, rr.stats.CacheMisses)
	}
	if rw.stats.InvalidatedBlocks != 8 {
		t.Fatalf("write invalidated %d blocks, want the read's fresh extent (8)", rw.stats.InvalidatedBlocks)
	}
	// After the batch, the blocks are uncached.
	sess := svc.NewSession(SessionOptions{})
	st, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 100, Count: 8}}, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("blocks still cached after in-batch write: %+v", st)
	}
}

// TestServiceConcurrentWrites mixes writers and readers under -race and
// re-checks the attribution sum property with write ops in play.
func TestServiceConcurrentWrites(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk())
	svc := NewService(v, ServiceOptions{CacheBlocks: 4096})
	defer svc.Close()

	const clients = 6
	sessions := make([]*Session, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		sessions[i] = svc.NewSession(SessionOptions{MaxInflight: 1 + i%2})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(500 + i)))
			for q := 0; q < 8; q++ {
				if q%3 == 2 {
					reqs := coalescedReqs(rng, v, 5)
					if _, err := sessions[i].Write(context.Background(), reqs, disk.SchedSPTF); err != nil {
						errs[i] = err
						return
					}
					continue
				}
				chunks := randomChunks(rng, v, 1+rng.Intn(2), 20)
				if _, err := sessions[i].RunPlan(context.Background(), chunkPlan(chunks), Options{}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	var sum Stats
	for _, s := range sessions {
		sum.Accumulate(s.Totals())
	}
	tot := svc.Totals()
	sum.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(sum, tot.Attributed, t)
	if sum.Writes != tot.Attributed.Writes || sum.InvalidatedBlocks != tot.Attributed.InvalidatedBlocks {
		t.Fatalf("write attribution mismatch: sessions %+v vs service %+v", sum, tot.Attributed)
	}
	// q%3==2 fires twice per client over 8 queries.
	if tot.WriteOps != clients*2 || sum.Writes == 0 {
		t.Fatalf("expected %d write ops with blocks written, got %+v (writes=%d)",
			clients*2, tot, sum.Writes)
	}
}

// TestServiceClose: submitting after Close fails cleanly, Close is
// idempotent.
func TestServiceClose(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	sess := svc.NewSession(SessionOptions{})
	if _, err := sess.RunPlan(context.Background(), Static(randomReqs(rand.New(rand.NewSource(5)), v, 10), disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	svc.Close()
	if _, err := sess.RunPlan(context.Background(), Static([]lvm.Request{{VLBN: 0, Count: 1}}, disk.SchedSPTF), Options{}); err == nil {
		t.Fatal("RunPlan after Close should fail")
	}
}

// TestSessionPlanError: a failing plan aborts the query and reports the
// planner's error — but chunks the service already served still land in
// the session's lifetime totals, preserving the attribution sum
// property for workloads containing failed queries.
func TestSessionPlanError(t *testing.T) {
	v := testVolume(t)
	svc := NewService(v, ServiceOptions{})
	defer svc.Close()
	boom := fmt.Errorf("boom")
	i := 0
	p := planFunc(func() (Chunk, bool, error) {
		i++
		if i > 2 {
			return Chunk{}, false, boom
		}
		return Chunk{Reqs: []lvm.Request{{VLBN: int64(i) * 100, Count: 4}}, Policy: disk.SchedSPTF}, true, nil
	})
	sess := svc.NewSession(SessionOptions{MaxInflight: 2})
	if _, err := sess.RunPlan(context.Background(), p, Options{}); err != boom {
		t.Fatalf("got %v, want planner error", err)
	}
	tot := svc.Totals()
	lt := sess.Totals()
	lt.ElapsedMs = tot.Attributed.ElapsedMs
	statsClose(lt, tot.Attributed, t)
	if lt.Cells != 8 {
		t.Fatalf("served chunks of the failed query not in lifetime totals: %+v", lt)
	}
}

// BenchmarkService measures end-to-end service throughput at 1, 4, and
// 16 concurrent clients, cache off and on, with a pure-read and a
// 10%-writes workload, next to the lone-session Execute benchmarks: each
// op is one client-query of 200 requests over a compact band (overlapping
// across clients, so the cache has work — and the writes give its
// invalidation path work).
func BenchmarkService(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		for _, cacheBlocks := range []int64{0, 1 << 22} {
			for _, writeEvery := range []int{0, 10} { // 0 = read-only, 10 = 10% writes
				name := fmt.Sprintf("clients=%d/cache=%d/writes=%d%%", clients, cacheBlocks, writeEvery)
				b.Run(name, func(b *testing.B) {
					v := testVolume(b, disk.AtlasTenKIII())
					svc := NewService(v, ServiceOptions{CacheBlocks: cacheBlocks})
					defer svc.Close()
					plans := make([][]lvm.Request, clients)
					writes := make([][]lvm.Request, clients)
					for i := range plans {
						rng := rand.New(rand.NewSource(int64(40 + i)))
						base := int64(1_000_000)
						plans[i] = make([]lvm.Request, 200)
						for j := range plans[i] {
							plans[i][j] = lvm.Request{VLBN: base + rng.Int63n(400_000), Count: 1 + rng.Intn(8)}
						}
						if writeEvery > 0 {
							// One write op per writeEvery reads, over the
							// same band so it collides with cached extents.
							writes[i] = make([]lvm.Request, len(plans[i])/writeEvery)
							for j := range writes[i] {
								writes[i][j] = lvm.Request{VLBN: base + rng.Int63n(400_000), Count: 1 + rng.Intn(4)}
							}
						}
					}
					b.ResetTimer()
					for n := 0; n < b.N; n++ {
						var wg sync.WaitGroup
						for i := 0; i < clients; i++ {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								sess := svc.NewSession(SessionOptions{})
								if _, err := sess.RunPlan(context.Background(), Static(plans[i], disk.SchedSPTF), Options{}); err != nil {
									b.Error(err)
									return
								}
								for _, w := range writes[i] {
									if _, err := sess.Write(context.Background(), []lvm.Request{w}, disk.SchedSPTF); err != nil {
										b.Error(err)
										return
									}
								}
							}(i)
						}
						wg.Wait()
					}
				})
			}
		}
	}
}

// TestConfigureRule: a service takes its options once, before it
// serves. Configure installs them on a fresh service; a second
// Configure, or one after an op was queued, fails and leaves the first
// options in force; zero options name nothing and succeed on a sealed
// service; after Close every Configure returns ErrClosed.
func TestConfigureRule(t *testing.T) {
	cached := ServiceOptions{CacheBlocks: 64}
	read := []lvm.Request{{VLBN: 100, Count: 4}}
	run := func(t *testing.T, svc *Service) Stats {
		t.Helper()
		st, err := svc.NewSession(SessionOptions{}).RunPlan(context.Background(), Static(read, disk.SchedSPTF), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, tc := range []struct {
		name   string
		before func(*testing.T, *Service)
		opts   ServiceOptions
		want   error
		cached bool // the repeated read hits afterwards
	}{
		{"fresh", func(*testing.T, *Service) {}, cached, nil, true},
		{"twice", func(t *testing.T, svc *Service) {
			if err := svc.Configure(cached); err != nil {
				t.Fatal(err)
			}
		}, ServiceOptions{WriteBack: WriteBackOptions{Enabled: true}}, errSealed, true},
		{"after one chunk", func(t *testing.T, svc *Service) { run(t, svc) }, cached, errSealed, false},
		{"zero on sealed", func(t *testing.T, svc *Service) {
			if err := svc.Configure(cached); err != nil {
				t.Fatal(err)
			}
		}, ServiceOptions{}, nil, true},
		{"after close", func(_ *testing.T, svc *Service) { svc.Close() }, ServiceOptions{}, ErrClosed, false},
		{"after close, options", func(_ *testing.T, svc *Service) { svc.Close() }, cached, ErrClosed, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := NewService(testVolume(t), ServiceOptions{})
			defer svc.Close()
			tc.before(t, svc)
			if err := svc.Configure(tc.opts); !errors.Is(err, tc.want) {
				t.Fatalf("Configure(%+v) = %v, want %v", tc.opts, err, tc.want)
			}
			if tc.want == ErrClosed {
				return
			}
			run(t, svc)
			if got := run(t, svc).CacheHits; (got > 0) != tc.cached {
				t.Fatalf("repeated read: %d cache hits, want cached=%v", got, tc.cached)
			}
			if svc.wb != nil {
				t.Fatal("a refused Configure installed write-back")
			}
		})
	}
}

// TestConfigureRacesFirstSubmit: Configure races a session's first
// submissions. Whichever takes mu first wins — the options are
// installed before the first op is queued, or refused after — and
// under -race nothing the loop reads is written while it runs.
func TestConfigureRacesFirstSubmit(t *testing.T) {
	opts := ServiceOptions{CacheBlocks: 64, FairQuantum: DefaultFairQuantum,
		WriteBack: WriteBackOptions{Enabled: true}}
	for i := 0; i < 20; i++ {
		svc := NewService(testVolume(t), ServiceOptions{})
		sess := svc.NewSession(SessionOptions{})
		started, done := make(chan struct{}), make(chan error, 1)
		go func() {
			close(started)
			for q := int64(0); q < 10; q++ {
				reqs := []lvm.Request{{VLBN: 100 + 8*q, Count: 4}}
				if _, err := sess.RunPlan(context.Background(), Static(reqs, disk.SchedSPTF), Options{}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		<-started
		if err := svc.Configure(opts); err != nil && !errors.Is(err, errSealed) {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		svc.Close()
	}
}

// TestMergedBatchErrorReachesEveryItem drives the merged path's
// failure: one chunk of a three-chunk admission batch asks for a
// request that runs past its disk segment, so the volume rejects the
// coalesced batch before any drive moves. Every item must get the
// error and no price; the totals, which nothing was folded into, must
// still equal what the items were handed; and the next batch, which
// runs through the same loop scratch, volume scratch and drive slabs,
// must price == on a fresh service.
func TestMergedBatchErrorReachesEveryItem(t *testing.T) {
	newVol := func() *lvm.Volume { return testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk()) }
	v := newVol()
	rng := rand.New(rand.NewSource(7))
	good := coalescedReqs(rng, v, 30)
	next := coalescedReqs(rng, v, 40)
	bad := []lvm.Request{{VLBN: v.DiskBlocks(0) - 2, Count: 4}} // crosses into disk 1
	batch := func(chunks ...[]lvm.Request) []*serviceOp {
		items := make([]*serviceOp, len(chunks))
		for i, reqs := range chunks {
			items[i] = &serviceOp{kind: opChunk, reply: make(chan opResult, 1),
				chunk: Chunk{Reqs: reqs, Policy: disk.SchedSPTF}}
		}
		return items
	}
	// serve runs one admission batch and returns each item's reply and
	// the prices summed as the items' sessions would sum them.
	serve := func(svc *Service, items []*serviceOp) ([]opResult, Stats) {
		svc.process(items)
		res := make([]opResult, len(items))
		var sum Stats
		for i, it := range items {
			res[i] = <-it.reply
			sum.Accumulate(res[i].stats)
		}
		return res, sum
	}
	sameAttributed := func(svc *Service, sum Stats) {
		t.Helper()
		got := svc.Totals().Attributed
		got.ElapsedMs, sum.ElapsedMs = 0, 0 // each item observes the batch's elapsed time in full
		if got != sum {
			t.Fatalf("Attributed %+v, the items were handed %+v", got, sum)
		}
	}

	svc := NewService(v, ServiceOptions{})
	defer svc.Close()
	res, sum := serve(svc, batch(good, bad, good))
	for i, r := range res {
		if r.err == nil || !strings.Contains(r.err.Error(), "crosses disk 0 segment end") {
			t.Fatalf("item %d: err %v, want the segment error", i, r.err)
		}
		if r.stats != (Stats{}) {
			t.Fatalf("item %d of a failed batch priced %+v", i, r.stats)
		}
	}
	sameAttributed(svc, sum)
	if tot := svc.Totals(); tot.Batches != 0 || tot.IssuedRequests != 0 {
		t.Fatalf("a failed batch was counted: %+v", tot)
	}

	got, sum := serve(svc, batch(good, next))
	sameAttributed(svc, sum)
	fresh := NewService(newVol(), ServiceOptions{})
	defer fresh.Close()
	want, _ := serve(fresh, batch(good, next))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d after the failure: %+v, a fresh service %+v", i, got[i], want[i])
		}
	}
	if got, want := svc.Totals(), fresh.Totals(); got != want {
		t.Fatalf("totals after the failure %+v, a fresh service %+v", got, want)
	}
}

// TestMergedBatchPricesUsefulCells holds every chunk pricing site of the
// loop to the one unit of Cells. Two sessions' padded chunks (classes a
// and b, which quantum 0 admits as one batch) are served by hand as one
// merged batch from the disks (planMerged, finishMerged), then served
// again, when the cache answers every request (planMerged's hit branch);
// a lone padded chunk goes through planSingle and finishSingle. Each
// reply's Cells must be its chunk's blocks less its Padding and its
// Padding the chunk's, and the replies must sum to Attributed field by
// field, ElapsedMs aside (each item observes its batch's in full).
func TestMergedBatchPricesUsefulCells(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk())
	rng := rand.New(rand.NewSource(9))
	chunk := func(policy disk.SchedPolicy, padding int64) Chunk {
		return Chunk{Reqs: coalescedReqs(rng, v, 20), Policy: policy, Padding: padding}
	}
	pair := []Chunk{chunk(disk.SchedSPTF, 3), chunk(disk.SchedFIFO, 5)}
	lone := []Chunk{chunk(disk.SchedSPTF, 2)}
	svc := NewService(v, ServiceOptions{CacheBlocks: 1 << 14})
	defer svc.Close()
	var sum Stats
	serve := func(name string, chunks []Chunk, merged, hits bool) {
		t.Helper()
		items := make([]*serviceOp, len(chunks))
		for i, c := range chunks {
			items[i] = &serviceOp{kind: opChunk, class: []string{"a", "b"}[i],
				chunk: c, reply: make(chan opResult, 1)}
		}
		before := svc.Totals().MergedBatches
		svc.process(items)
		if got := svc.Totals().MergedBatches - before; (got == 1) != merged {
			t.Fatalf("%s: %d merged batches", name, got)
		}
		for i, it := range items {
			r := <-it.reply
			if r.err != nil {
				t.Fatalf("%s item %d: %v", name, i, r.err)
			}
			var blocks int64
			for _, q := range it.chunk.Reqs {
				blocks += int64(q.Count)
			}
			if r.stats.Cells != blocks-it.chunk.Padding || r.stats.Padding != it.chunk.Padding {
				t.Fatalf("%s item %d: %d cells, %d padding; the chunk reads %d blocks, %d of them padding",
					name, i, r.stats.Cells, r.stats.Padding, blocks, it.chunk.Padding)
			}
			if allHit := r.stats.CacheHits == int64(len(it.chunk.Reqs)); allHit != hits {
				t.Fatalf("%s item %d: %d cache hits of %d requests", name, i, r.stats.CacheHits, len(it.chunk.Reqs))
			}
			sum.Accumulate(r.stats)
		}
		got, want := svc.Totals().Attributed, sum
		got.ElapsedMs, want.ElapsedMs = 0, 0
		if got != want {
			t.Fatalf("%s: Attributed %+v, the replies sum to %+v", name, got, want)
		}
	}
	serve("merged, from the disks", pair, true, false)
	serve("merged, from the cache", pair, true, true)
	serve("lone", lone, false, false)
}

package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// TestExtentCacheZeroCapacity pins the zero-capacity no-op path: a
// capacity of 0 (or less) yields the nil cache, and every operation on
// it is a safe no-op rather than a panic — the guard the service relies
// on when a store runs with caching off.
func TestExtentCacheZeroCapacity(t *testing.T) {
	for _, capBlocks := range []int64{0, -5} {
		c := newExtentCache(capBlocks)
		if c != nil {
			t.Fatalf("capacity %d built a live cache", capBlocks)
		}
		c.insert(0, 10)
		if c.covered(0, 1) {
			t.Fatal("nil cache reported coverage")
		}
		if got := c.invalidate(0, 10); got != 0 {
			t.Fatalf("nil cache invalidated %d blocks", got)
		}
		c.clear()
	}
}

// TestExtentCacheInvalidateBoundaries exercises invalidation ranges
// that end exactly on extent boundaries: a range touching an extent's
// edge from outside must not trim it, a range ending exactly at the
// edge drops only the inside part, and exact-cover drops the extent
// with nothing left behind.
func TestExtentCacheInvalidateBoundaries(t *testing.T) {
	c := newExtentCache(1000)
	c.insert(100, 200)

	// Adjacent-outside ranges: no overlap, nothing dropped.
	if got := c.invalidate(0, 100); got != 0 {
		t.Fatalf("range ending at the extent start invalidated %d blocks", got)
	}
	if got := c.invalidate(200, 300); got != 0 {
		t.Fatalf("range starting at the extent end invalidated %d blocks", got)
	}
	if !c.covered(100, 200) || c.used != 100 {
		t.Fatalf("untouched extent changed (used %d)", c.used)
	}

	// Trim exactly at the left edge: remnant [150,200) only.
	if got := c.invalidate(100, 150); got != 50 {
		t.Fatalf("left trim invalidated %d blocks, want 50", got)
	}
	if c.covered(100, 150) || !c.covered(150, 200) || c.used != 50 {
		t.Fatalf("left trim wrong (used %d)", c.used)
	}

	// Trim exactly at the right edge: remnant [150,180) only.
	if got := c.invalidate(180, 200); got != 20 {
		t.Fatalf("right trim invalidated %d blocks, want 20", got)
	}
	if c.covered(180, 200) || !c.covered(150, 180) || c.used != 30 {
		t.Fatalf("right trim wrong (used %d)", c.used)
	}

	// Exact cover: the extent vanishes, no empty remnants survive.
	if got := c.invalidate(150, 180); got != 30 {
		t.Fatalf("exact cover invalidated %d blocks, want 30", got)
	}
	if len(c.extents()) != 0 || c.used != 0 || len(c.byRecency()) != 0 {
		t.Fatalf("empty remnants left behind: %d extents, used %d, lru %d",
			len(c.extents()), c.used, len(c.byRecency()))
	}
}

// TestExtentCacheSplitKeepsStructure checks the straddling split in
// detail: both remnants are present, disjoint, in byStart order, and
// the accounting matches, including a second split of a remnant.
func TestExtentCacheSplitKeepsStructure(t *testing.T) {
	c := newExtentCache(1000)
	c.insert(100, 300)
	if got := c.invalidate(180, 220); got != 40 {
		t.Fatalf("split invalidated %d blocks, want 40", got)
	}
	byStart := c.extents()
	if len(byStart) != 2 || c.used != 160 || len(c.byRecency()) != 2 {
		t.Fatalf("split structure wrong: %d extents, used %d, lru %d",
			len(byStart), c.used, len(c.byRecency()))
	}
	if byStart[0].start != 100 || byStart[0].end != 180 ||
		byStart[1].start != 220 || byStart[1].end != 300 {
		t.Fatalf("remnants [%d,%d) [%d,%d), want [100,180) [220,300)",
			byStart[0].start, byStart[0].end, byStart[1].start, byStart[1].end)
	}
	// Split a remnant again.
	if got := c.invalidate(120, 140); got != 20 {
		t.Fatalf("re-split invalidated %d, want 20", got)
	}
	if n := len(c.extents()); n != 3 || c.used != 140 {
		t.Fatalf("re-split wrong: %d extents, used %d", n, c.used)
	}
	for _, want := range [][2]int64{{100, 120}, {140, 180}, {220, 300}} {
		if !c.covered(want[0], want[1]) {
			t.Fatalf("remnant [%d,%d) missing", want[0], want[1])
		}
	}
}

// TestExtentCacheEvictionOrderAfterSplit: split remnants inherit the
// original extent's recency slot, so they are evicted before
// more-recent extents and after less-recent refreshes.
func TestExtentCacheEvictionOrderAfterSplit(t *testing.T) {
	c := newExtentCache(120)
	c.insert(0, 40)      // A (oldest)
	c.insert(100, 140)   // B
	c.insert(200, 240)   // C (newest); cache is exactly full
	c.invalidate(10, 30) // splits A into [0,10) and [30,40), same recency

	// Touch B: order is now A-remnants (LRU), C, B (MRU).
	if !c.covered(100, 140) {
		t.Fatal("B missing before eviction")
	}
	// Insert 40 fresh blocks: over capacity by 20, so both A remnants
	// (10 blocks each, at the LRU tail) must go — not C or B.
	c.insert(300, 340)
	if c.covered(0, 10) || c.covered(30, 40) {
		t.Fatal("old split remnants survived eviction")
	}
	if !c.covered(100, 140) || !c.covered(200, 240) || !c.covered(300, 340) {
		t.Fatal("recent extents evicted instead of the split remnants")
	}
	if c.used != 120 {
		t.Fatalf("used %d blocks after eviction, want 120", c.used)
	}
}

// TestWriteSplitsAtSegmentBoundary: a write extent coalesced across a
// disk-segment boundary (overflow tail of one disk adjacent in VLBN
// space to the next disk's first block) must be split into per-disk
// requests instead of erroring mid-update.
func TestWriteSplitsAtSegmentBoundary(t *testing.T) {
	v := testVolume(t, disk.SmallTestDisk(), disk.SmallTestDisk())
	svc := NewService(v, ServiceOptions{CacheBlocks: 1 << 16})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	edge := v.DiskBlocks(0)

	// Prime the cache on both sides of the boundary.
	reads := []lvm.Request{{VLBN: edge - 4, Count: 4}, {VLBN: edge, Count: 4}}
	if _, err := sess.RunPlan(context.Background(), Static(reads, disk.SchedSPTF), Options{}); err != nil {
		t.Fatal(err)
	}

	st, err := sess.Write(context.Background(), []lvm.Request{{VLBN: edge - 2, Count: 4}}, disk.SchedSPTF)
	if err != nil {
		t.Fatalf("boundary-crossing write rejected: %v", err)
	}
	if st.Writes != 4 || st.Requests != 2 {
		t.Fatalf("want 4 blocks over 2 split requests, got %+v", st)
	}
	if st.InvalidatedBlocks != 4 {
		t.Fatalf("invalidated %d blocks, want 4 (2 per side)", st.InvalidatedBlocks)
	}
	// Both sides of the boundary were dirtied: re-reads miss.
	post, err := sess.RunPlan(context.Background(), Static(reads, disk.SchedSPTF), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if post.CacheMisses != 2 {
		t.Fatalf("post-write reads: %+v, want both sides invalidated", post)
	}
}

// TestServiceBatchWindow: with a time-based admission window, ops
// submitted shortly after the first one must land in the same admission
// batch instead of being admitted immediately.
func TestServiceBatchWindow(t *testing.T) {
	v := testVolume(t)
	// A generous window: the submits below must all land inside it even
	// when a loaded -race CI runner deschedules this goroutine between
	// them for a while.
	svc := NewService(v, ServiceOptions{BatchWindow: 500 * time.Millisecond})
	defer svc.Close()

	const n = 3
	ops := make([]*serviceOp, n)
	for i := range ops {
		ops[i] = &serviceOp{
			kind:   opChunk,
			chunk:  Chunk{Reqs: []lvm.Request{{VLBN: int64(1000 * (i + 1)), Count: 4}}, Policy: disk.SchedSPTF},
			policy: disk.SchedSPTF,
			reply:  make(chan opResult, 1),
		}
	}
	// The first submission starts the loop, which then waits the window
	// out; the rest arrive microseconds later, well inside it.
	for _, op := range ops {
		if err := svc.submit(op); err != nil {
			t.Fatal(err)
		}
	}
	for i, op := range ops {
		if r := <-op.reply; r.err != nil {
			t.Fatalf("op %d: %v", i, r.err)
		}
	}
	tot := svc.Totals()
	if tot.Batches != 1 || tot.MaxBatchChunks != n {
		t.Fatalf("window did not coalesce the burst into one batch: %+v", tot)
	}
}

package pool

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

func testPool(t *testing.T) *Pool {
	t.Helper()
	p, err := New(16, disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// freeBlocks sums the pool's free space per drive.
func freeBlocks(p *Pool) []int64 {
	u := p.Usage()
	out := make([]int64, len(u))
	for i := range u {
		out[i] = u[i].FreeBlocks
	}
	return out
}

// distinctDisks returns the set of drives under lv's segments.
func distinctDisks(lv *lvm.Volume) map[*disk.Disk]bool {
	out := map[*disk.Disk]bool{}
	for i := 0; i < lv.NumDisks(); i++ {
		out[lv.Disk(i)] = true
	}
	return out
}

// hasCOW reports whether any track of lv is still copy-on-write.
func hasCOW(lv *lvm.Volume) bool {
	return len(lv.CowSpans([]lvm.Request{{VLBN: 0, Count: int(lv.TotalBlocks())}})) > 0
}

func TestNewValidation(t *testing.T) {
	if _, err := New(16); err == nil {
		t.Error("empty pool accepted")
	}
	g := disk.SmallTestDisk()
	if _, err := New(g.AdjSpan()+1, g); err == nil {
		t.Error("depth beyond settle span accepted")
	}
	p, err := New(0, disk.AtlasTenKIII())
	if err != nil {
		t.Fatal(err)
	}
	if p.adjDepth != lvm.DefaultAdjacencyDepth {
		t.Errorf("default depth %d, want %d", p.adjDepth, lvm.DefaultAdjacencyDepth)
	}
	if p.NumDrives() != 1 {
		t.Errorf("got %d drives, want 1", p.NumDrives())
	}
}

// TestNewVolumePlacement pins first-fit placement: with no preference
// the volume lands on drive 0, with an explicit preference it lands on
// that drive, and the thin accounting (Vol.Blocks, Usage) tracks the
// track-rounded allocation exactly.
func TestNewVolumePlacement(t *testing.T) {
	p := testPool(t)
	free0 := freeBlocks(p)

	a, err := p.NewVolume(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	lv := a.Volume()
	if lv.TotalBlocks() < 100 {
		t.Fatalf("volume of %d blocks for a 100-block ask", lv.TotalBlocks())
	}
	if a.Blocks() != lv.TotalBlocks() {
		t.Fatalf("accounting %d blocks, volume maps %d", a.Blocks(), lv.TotalBlocks())
	}
	free1 := freeBlocks(p)
	if free1[0] != free0[0]-a.Blocks() || free1[1] != free0[1] {
		t.Fatalf("unpreferred volume not first-fit on drive 0: usage %v after allocating %d (was %v)", free1, a.Blocks(), free0)
	}

	b, err := p.NewVolume(100, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if free2 := freeBlocks(p); free2[0] != free1[0] || free2[1] != free1[1]-b.Blocks() {
		t.Fatalf("preferred volume not on drive 1: usage %v after allocating %d (was %v)", free2, b.Blocks(), free1)
	}

	a.Free()
	b.Free()
	if got := freeBlocks(p); got[0] != free0[0] || got[1] != free0[1] {
		t.Fatalf("space not reclaimed: %v, want %v", got, free0)
	}
}

func TestAllocErrors(t *testing.T) {
	p := testPool(t)
	if _, err := p.NewVolume(0, nil); err == nil {
		t.Error("zero-block volume accepted")
	}
	if _, err := p.NewVolume(100, []int{7}); err == nil {
		t.Error("bad drive index accepted")
	}
	// An unsatisfiable ask must roll back every partial carve: the free
	// lists (including run merging on release) end up exactly as before.
	free0 := freeBlocks(p)
	total := free0[0] + free0[1]
	if _, err := p.NewVolume(total+1, nil); err == nil {
		t.Error("over-capacity volume accepted")
	}
	if got := freeBlocks(p); got[0] != free0[0] || got[1] != free0[1] {
		t.Fatalf("failed allocation leaked space: %v, want %v", got, free0)
	}
	// The pool's entire capacity is allocatable in one volume (the
	// rollback above merged every run back).
	v, err := p.NewVolume(total, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Blocks() != total {
		t.Fatalf("whole-pool volume references %d blocks, want %d", v.Blocks(), total)
	}
	v.Free()
}

func TestGrow(t *testing.T) {
	p := testPool(t)
	v, err := p.NewVolume(100, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	lv := v.Volume()
	before := lv.TotalBlocks()
	if err := v.Grow(before+5, []int{1}, false); err != nil {
		t.Fatal(err)
	}
	if lv.TotalBlocks() < 2*before+5 {
		t.Fatalf("grown volume maps %d blocks, want at least %d", lv.TotalBlocks(), 2*before+5)
	}
	if v.Blocks() != lv.TotalBlocks() {
		t.Fatalf("accounting %d blocks after growth, volume maps %d", v.Blocks(), lv.TotalBlocks())
	}
	// The growth extents honored the preference: segment 0 stays on
	// drive 0, the appended segments are on drive 1.
	if lv.NumDisks() < 2 {
		t.Fatalf("growth added no segments: %d", lv.NumDisks())
	}
	if n := len(distinctDisks(lv)); n != 2 {
		t.Fatalf("grown volume spans %d drives, want 2", n)
	}
	if err := v.Grow(0, nil, false); err == nil {
		t.Error("zero-block growth accepted")
	}
	v.Free()
	if err := v.Grow(100, nil, false); err == nil {
		t.Error("growth of a freed volume accepted")
	}
	v.Free() // idempotent
	if got := freeBlocks(p); got[0] != got[1] {
		t.Fatalf("asymmetric free space after full reclaim: %v", got)
	}
}

// TestSnapshotCloneRefcounts walks the reference-counting lifecycle:
// snapshots and clones share the frozen extents (no new space), and the
// space returns to the pool only when the LAST referencing volume,
// snapshot, or clone is freed — in any order.
func TestSnapshotCloneRefcounts(t *testing.T) {
	p := testPool(t)
	free0 := freeBlocks(p)
	v, err := p.NewVolume(100, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	used := v.Blocks()

	sn, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !hasCOW(v.Volume()) {
		t.Fatal("snapshot did not flip the origin copy-on-write")
	}
	cl, err := sn.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Volume().TotalBlocks() != v.Volume().TotalBlocks() {
		t.Fatal("clone does not mirror the origin's VLBN space")
	}
	if !hasCOW(cl.Volume()) {
		t.Fatal("clone segments not copy-on-write")
	}
	if cl.Blocks() != used {
		t.Fatalf("clone charged %d blocks, want the shared %d", cl.Blocks(), used)
	}
	if got := freeBlocks(p); got[0] != free0[0]-used {
		t.Fatalf("snapshot+clone consumed new space: %v", got)
	}

	// Free origin first: the snapshot and clone keep the extents alive.
	v.Free()
	if got := freeBlocks(p); got[0] != free0[0]-used {
		t.Fatalf("space reclaimed while snapshot and clone live: %v", got)
	}
	sn.Free()
	sn.Free() // idempotent
	if got := freeBlocks(p); got[0] != free0[0]-used {
		t.Fatalf("space reclaimed while clone lives: %v", got)
	}
	cl.Free()
	if got := freeBlocks(p); got[0] != free0[0] || got[1] != free0[1] {
		t.Fatalf("space not reclaimed after last reference: %v, want %v", got, free0)
	}

	if _, err := v.Snapshot(); err == nil {
		t.Error("snapshot of a freed volume accepted")
	}
	if _, err := sn.Clone(); err == nil {
		t.Error("clone from a freed snapshot accepted")
	}
}

// TestCowFaultCharging exercises the installed CowAllocFunc end to end:
// resolving a fault span carves a private contiguous extent — preferring
// the faulting drive — and charges it to the faulting volume's thin
// accounting.
func TestCowFaultCharging(t *testing.T) {
	p := testPool(t)
	v, err := p.NewVolume(100, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lv := v.Volume()
	used := v.Blocks()

	spans := lv.CowSpans([]lvm.Request{{VLBN: 0, Count: 1}})
	if len(spans) != 1 {
		t.Fatalf("got %d fault spans, want 1", len(spans))
	}
	free0 := freeBlocks(p)
	if err := lv.ResolveCOW(spans); err != nil {
		t.Fatal(err)
	}
	faulted := int64(spans[0].Count)
	if v.Blocks() != used+faulted {
		t.Fatalf("fault charged %d blocks, want %d", v.Blocks()-used, faulted)
	}
	// Plenty of room on drive 0, so the private extent stays local.
	if free1 := freeBlocks(p); free1[0] != free0[0]-faulted || free1[1] != free0[1] {
		t.Fatalf("private extent not placed on the preferred (faulting) drive: usage %v, was %v", free1, free0)
	}

	// A fault against a freed volume must fail at the allocator, not
	// carve space: pick a track that is still frozen.
	rest := lv.CowSpans([]lvm.Request{{VLBN: 0, Count: int(lv.TotalBlocks())}})
	if len(rest) == 0 {
		t.Fatal("no frozen tracks left to fault")
	}
	v.Free()
	sn.Free()
	if err := lv.ResolveCOW(rest[:1]); err == nil {
		t.Error("COW fault on a freed volume accepted")
	}
}

// TestCowFaultExhaustion: when no contiguous run of the right track
// length is free anywhere, the fault surfaces as an error instead of
// corrupting the volume.
func TestCowFaultExhaustion(t *testing.T) {
	p := testPool(t)
	free0 := freeBlocks(p)
	v, err := p.NewVolume(free0[0]+free0[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := v.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	lv := v.Volume()
	spans := lv.CowSpans([]lvm.Request{{VLBN: 0, Count: 1}})
	if err := lv.ResolveCOW(spans); err == nil {
		t.Error("COW fault succeeded with a full pool")
	}
	sn.Free()
	v.Free()
	if got := freeBlocks(p); got[0] != free0[0] || got[1] != free0[1] {
		t.Fatalf("space not reclaimed: %v, want %v", got, free0)
	}
}

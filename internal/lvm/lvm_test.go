package lvm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/disk"
)

func twoDiskVolume(t *testing.T) *Volume {
	t.Helper()
	v, err := New(16, disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("empty volume accepted")
	}
	if _, err := New(-1, disk.SmallTestDisk()); err == nil {
		t.Error("negative depth accepted")
	}
	g := disk.SmallTestDisk()
	if _, err := New(g.AdjSpan()+1, g); err == nil {
		t.Error("depth beyond settle span accepted")
	}
	v, err := New(0, disk.AtlasTenKIII())
	if err != nil {
		t.Fatal(err)
	}
	if v.AdjacencyDepth() != DefaultAdjacencyDepth {
		t.Errorf("default depth %d, want %d", v.AdjacencyDepth(), DefaultAdjacencyDepth)
	}
}

func TestLocateRoundTrip(t *testing.T) {
	v := twoDiskVolume(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vlbn := rng.Int63n(v.TotalBlocks())
		di, lbn, err := v.Locate(vlbn)
		if err != nil {
			return false
		}
		return v.DiskStart(di)+lbn == vlbn && lbn >= 0 && lbn < v.DiskBlocks(di)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if _, _, err := v.Locate(-1); err == nil {
		t.Error("negative VLBN accepted")
	}
	if _, _, err := v.Locate(v.TotalBlocks()); err == nil {
		t.Error("VLBN past end accepted")
	}
}

func TestSegmentBoundaries(t *testing.T) {
	v := twoDiskVolume(t)
	d0 := v.DiskBlocks(0)
	di, lbn, err := v.Locate(d0 - 1)
	if err != nil || di != 0 || lbn != d0-1 {
		t.Fatalf("last block of disk 0: got (%d,%d,%v)", di, lbn, err)
	}
	di, lbn, err = v.Locate(d0)
	if err != nil || di != 1 || lbn != 0 {
		t.Fatalf("first block of disk 1: got (%d,%d,%v)", di, lbn, err)
	}
}

func TestGetAdjacentMatchesDisk(t *testing.T) {
	v := twoDiskVolume(t)
	g := v.Disk(1).Geometry()
	lbn := int64(100)
	vlbn := v.DiskStart(1) + lbn
	want, err := g.Adjacent(lbn, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := v.GetAdjacent(vlbn, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d adjacents, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != v.DiskStart(1)+want[i] {
			t.Fatalf("adjacent %d: got %d, want %d", i, got[i], v.DiskStart(1)+want[i])
		}
		// Adjacency must never leave the disk segment.
		di, _, _ := v.Locate(got[i])
		if di != 1 {
			t.Fatalf("adjacency crossed disks")
		}
	}
	k2, err := v.GetAdjacentK(vlbn, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k2 != got[1] {
		t.Fatalf("GetAdjacentK(2)=%d, want %d", k2, got[1])
	}
}

func TestGetAdjacentDepthLimit(t *testing.T) {
	v := twoDiskVolume(t)
	if _, err := v.GetAdjacent(0, v.AdjacencyDepth()+1); err == nil {
		t.Error("depth beyond D accepted")
	}
	if _, err := v.GetAdjacentK(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestGetTrackBoundaries(t *testing.T) {
	v := twoDiskVolume(t)
	vlbn := v.DiskStart(1) + 57
	start, next, err := v.GetTrackBoundaries(vlbn)
	if err != nil {
		t.Fatal(err)
	}
	if vlbn < start || vlbn >= next {
		t.Fatalf("vlbn outside its track boundaries")
	}
	di, lbn, err := v.Locate(vlbn)
	if err != nil {
		t.Fatal(err)
	}
	if tl := v.Disk(di).Geometry().TrackLen(lbn); int(next-start) != tl {
		t.Fatalf("track interval %d != track length %d", next-start, tl)
	}
}

func TestZonesCoverVolume(t *testing.T) {
	v := twoDiskVolume(t)
	zones := v.Zones()
	var blocks int64
	for i, z := range zones {
		blocks += z.Blocks
		if z.Blocks != int64(z.Tracks)*int64(z.TrackLen) {
			t.Fatalf("zone %d: blocks %d != tracks*tracklen", i, z.Blocks)
		}
	}
	if blocks != v.TotalBlocks() {
		t.Fatalf("zones cover %d blocks, volume has %d", blocks, v.TotalBlocks())
	}
}

// TestLocateSegmentEdges pins the binary-search Locate on every segment
// boundary of a multi-disk volume: the first and last VLBN of each
// member segment must resolve to that disk, with exact local LBNs.
func TestLocateSegmentEdges(t *testing.T) {
	v, err := New(16, disk.SmallTestDisk(), disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	for di := 0; di < v.NumDisks(); di++ {
		first := v.DiskStart(di)
		last := first + v.DiskBlocks(di) - 1
		gd, lbn, err := v.Locate(first)
		if err != nil || gd != di || lbn != 0 {
			t.Errorf("Locate(first of disk %d) = (%d,%d,%v), want (%d,0)", di, gd, lbn, err, di)
		}
		gd, lbn, err = v.Locate(last)
		if err != nil || gd != di || lbn != v.DiskBlocks(di)-1 {
			t.Errorf("Locate(last of disk %d) = (%d,%d,%v), want (%d,%d)",
				di, gd, lbn, err, di, v.DiskBlocks(di)-1)
		}
	}
}

// TestServeBatchConcurrentDisks drives large batches across all member
// disks of a multi-disk volume repeatedly; under -race this verifies
// that the per-disk goroutines never share drive state.
func TestServeBatchConcurrentDisks(t *testing.T) {
	v, err := New(16, disk.SmallTestDisk(), disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 5; round++ {
		reqs := make([]Request, 300)
		for i := range reqs {
			reqs[i] = Request{VLBN: rng.Int63n(v.TotalBlocks() - 4), Count: 1 + rng.Intn(4)}
		}
		// Keep requests inside their disk segment.
		for i := range reqs {
			di, lbn, err := v.Locate(reqs[i].VLBN)
			if err != nil {
				t.Fatal(err)
			}
			if over := lbn + int64(reqs[i].Count) - v.DiskBlocks(di); over > 0 {
				reqs[i].VLBN -= over
			}
		}
		comps, elapsed, err := v.ServeBatch(reqs, disk.SchedSPTF)
		if err != nil {
			t.Fatal(err)
		}
		if len(comps) != len(reqs) {
			t.Fatalf("round %d: %d completions for %d requests", round, len(comps), len(reqs))
		}
		// Elapsed is the max per-disk busy time, so it can never exceed
		// the serial sum and must be positive.
		var sum float64
		for _, c := range comps {
			sum += c.Cost.TotalMs()
		}
		if elapsed <= 0 || elapsed > sum {
			t.Fatalf("round %d: elapsed %.3f outside (0, %.3f]", round, elapsed, sum)
		}
	}
	s := v.Stats()
	var served int64
	for _, st := range s {
		served += st.Requests
	}
	if served != 5*300 {
		t.Fatalf("disks served %d requests in total, want %d", served, 5*300)
	}
}

func TestServeBatchRoutesToDisks(t *testing.T) {
	v := twoDiskVolume(t)
	reqs := []Request{
		{VLBN: 10, Count: 2},
		{VLBN: v.DiskStart(1) + 20, Count: 1},
		{VLBN: 30, Count: 1},
	}
	comps, elapsed, err := v.ServeBatch(reqs, disk.SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("got %d completions", len(comps))
	}
	var on0, on1 int
	for _, c := range comps {
		switch c.DiskIdx {
		case 0:
			on0++
		case 1:
			on1++
		}
	}
	if on0 != 2 || on1 != 1 {
		t.Fatalf("routing wrong: %d on disk0, %d on disk1", on0, on1)
	}
	if elapsed <= 0 {
		t.Fatal("elapsed must be positive")
	}
	s := v.Stats()
	if s[0].Requests != 2 || s[1].Requests != 1 {
		t.Fatalf("per-disk stats wrong: %+v", s)
	}
}

func TestServeBatchParallelElapsed(t *testing.T) {
	// Elapsed for a batch split across two disks is the max per-disk
	// time, not the sum: disks position independently.
	v := twoDiskVolume(t)
	reqs := []Request{{VLBN: 1000, Count: 1}, {VLBN: v.DiskStart(1) + 1000, Count: 1}}
	comps, elapsed, err := v.ServeBatch(reqs, disk.SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	sum := comps[0].Cost.TotalMs() + comps[1].Cost.TotalMs()
	if elapsed >= sum {
		t.Fatalf("elapsed %.2f not better than serial %.2f", elapsed, sum)
	}
}

func TestServeBatchRejectsCrossSegment(t *testing.T) {
	v := twoDiskVolume(t)
	r := Request{VLBN: v.DiskStart(1) - 1, Count: 2}
	if _, _, err := v.ServeBatch([]Request{r}, disk.SchedFIFO); err == nil {
		t.Error("cross-segment request accepted")
	}
}

// zone0TL returns the track length of the geometry's first zone, the
// granule pool-style extents are aligned to in these tests.
func zone0TL(g *disk.Geometry) int64 {
	return int64(g.ZoneByIndex(0).SectorsPerTrack)
}

func TestNewFromExtentsValidation(t *testing.T) {
	g := disk.SmallTestDisk()
	dr := NewDrive(g)
	tl := zone0TL(g)
	if _, err := NewFromExtents(16, nil); err == nil {
		t.Error("empty extent list accepted")
	}
	if _, err := NewFromExtents(16, []Extent{{Drive: nil, Blocks: tl}}); err == nil {
		t.Error("extent without a drive accepted")
	}
	if _, err := NewFromExtents(16, []Extent{{Drive: dr, Blocks: 0}}); err == nil {
		t.Error("zero-block extent accepted")
	}
	if _, err := NewFromExtents(16, []Extent{{Drive: dr, PhysStart: -1, Blocks: tl}}); err == nil {
		t.Error("negative physical start accepted")
	}
	if _, err := NewFromExtents(16, []Extent{{Drive: dr, PhysStart: g.TotalBlocks() - 1, Blocks: 2}}); err == nil {
		t.Error("extent past drive capacity accepted")
	}
	if _, err := NewFromExtents(g.AdjSpan()+1, []Extent{{Drive: dr, Blocks: tl}}); err == nil {
		t.Error("depth beyond settle span accepted")
	}
	v, err := NewFromExtents(0, []Extent{{Drive: NewDrive(disk.AtlasTenKIII()), Blocks: tl}})
	if err != nil {
		t.Fatal(err)
	}
	if v.AdjacencyDepth() != DefaultAdjacencyDepth {
		t.Errorf("default depth %d, want %d", v.AdjacencyDepth(), DefaultAdjacencyDepth)
	}
}

// TestPoolExtentMapping pins the pool shape the classic tests never hit:
// two non-contiguous extents carved from ONE shared drive become two
// segments of one VLBN space, and ServeBatch routes and back-maps both
// through the single drive.
func TestPoolExtentMapping(t *testing.T) {
	g := disk.SmallTestDisk()
	dr := NewDrive(g)
	tl := zone0TL(g)
	v, err := NewFromExtents(16, []Extent{
		{Drive: dr, PhysStart: 0, Blocks: 4 * tl},
		{Drive: dr, PhysStart: 8 * tl, Blocks: 2 * tl},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.NumDisks() != 2 || v.TotalBlocks() != 6*tl {
		t.Fatalf("got %d segments over %d blocks, want 2 over %d", v.NumDisks(), v.TotalBlocks(), 6*tl)
	}
	if len(v.set.Load().drives) != 1 {
		t.Fatalf("segments on one drive report %d distinct drives", len(v.set.Load().drives))
	}
	if v.DiskStart(1) != 4*tl || v.DiskBlocks(1) != 2*tl {
		t.Fatalf("segment 1 at (%d,+%d), want (%d,+%d)", v.DiskStart(1), v.DiskBlocks(1), 4*tl, 2*tl)
	}
	// The VLBN space is contiguous across the physical gap.
	di, lbn, err := v.Locate(4*tl - 1)
	if err != nil || di != 0 || lbn != 4*tl-1 {
		t.Fatalf("last block of segment 0: got (%d,%d,%v)", di, lbn, err)
	}
	di, lbn, err = v.Locate(4 * tl)
	if err != nil || di != 1 || lbn != 0 {
		t.Fatalf("first block of segment 1: got (%d,%d,%v)", di, lbn, err)
	}
	comps, elapsed, err := v.ServeBatch([]Request{
		{VLBN: tl, Count: 2},
		{VLBN: 5 * tl, Count: 1},
	}, disk.SchedSPTF)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 2 || elapsed <= 0 {
		t.Fatalf("got %d completions, elapsed %.3f", len(comps), elapsed)
	}
	for _, c := range comps {
		want := 0
		if c.Req.VLBN >= 4*tl {
			want = 1
		}
		if c.DiskIdx != want {
			t.Fatalf("completion at VLBN %d tagged segment %d, want %d", c.Req.VLBN, c.DiskIdx, want)
		}
	}
}

// TestExtendAppendOnly verifies online growth: extents append to the
// VLBN space, and every pre-growth address — segment index, start, and
// local LBN — is bit-identical afterwards.
func TestExtendAppendOnly(t *testing.T) {
	g := disk.SmallTestDisk()
	dr := NewDrive(g)
	tl := zone0TL(g)
	v, err := NewFromExtents(16, []Extent{{Drive: dr, PhysStart: 0, Blocks: 4 * tl}})
	if err != nil {
		t.Fatal(err)
	}
	type loc struct {
		di  int
		lbn int64
	}
	pre := map[int64]loc{}
	for vlbn := int64(0); vlbn < v.TotalBlocks(); vlbn += tl / 2 {
		di, lbn, err := v.Locate(vlbn)
		if err != nil {
			t.Fatal(err)
		}
		pre[vlbn] = loc{di, lbn}
	}
	if err := v.Extend(nil); err != nil {
		t.Fatal(err)
	}
	if v.NumDisks() != 1 {
		t.Fatal("empty Extend changed the segment table")
	}
	// A bad extent must reject the whole call without publishing.
	if err := v.Extend([]Extent{{Drive: dr, PhysStart: 6 * tl, Blocks: 0}}); err == nil {
		t.Error("zero-block growth extent accepted")
	}
	if v.NumDisks() != 1 || v.TotalBlocks() != 4*tl {
		t.Fatal("failed Extend mutated the volume")
	}
	dr2 := NewDrive(disk.SmallTestDisk())
	if err := v.Extend([]Extent{
		{Drive: dr, PhysStart: 6 * tl, Blocks: 2 * tl},
		{Drive: dr2, PhysStart: 0, Blocks: tl},
	}); err != nil {
		t.Fatal(err)
	}
	if v.NumDisks() != 3 || v.TotalBlocks() != 7*tl {
		t.Fatalf("grown to %d segments over %d blocks, want 3 over %d", v.NumDisks(), v.TotalBlocks(), 7*tl)
	}
	if v.DiskStart(1) != 4*tl || v.DiskStart(2) != 6*tl {
		t.Fatalf("new segments at %d and %d, want %d and %d", v.DiskStart(1), v.DiskStart(2), 4*tl, 6*tl)
	}
	if len(v.set.Load().drives) != 2 {
		t.Fatalf("got %d distinct drives, want 2", len(v.set.Load().drives))
	}
	for vlbn, want := range pre {
		di, lbn, err := v.Locate(vlbn)
		if err != nil || di != want.di || lbn != want.lbn {
			t.Fatalf("VLBN %d moved under growth: got (%d,%d,%v), want (%d,%d)",
				vlbn, di, lbn, err, want.di, want.lbn)
		}
	}
	// Growth can bring in copy-on-write extents (a clone growing over a
	// second snapshot generation); the fast-path flag must follow.
	if v.set.Load().hasCow {
		t.Fatal("volume copy-on-write before any COW extent")
	}
	if err := v.Extend([]Extent{{Drive: dr2, PhysStart: 2 * tl, Blocks: tl, COW: true}}); err != nil {
		t.Fatal(err)
	}
	if !v.set.Load().hasCow {
		t.Fatal("COW growth extent did not mark the volume")
	}
}

// TestCowSpansAndResolve walks the copy-on-write cycle at the lvm
// layer: MarkCOW freezes every segment, CowSpans widens dirty ranges to
// track granules, and ResolveCOW remaps each faulted span onto a
// private extent — splitting the segment in place while every VLBN keeps
// resolving, just onto new physical homes.
func TestCowSpansAndResolve(t *testing.T) {
	g := disk.SmallTestDisk()
	dr := NewDrive(g)
	tl := zone0TL(g)
	v, err := NewFromExtents(16, []Extent{{Drive: dr, PhysStart: 0, Blocks: 4 * tl}})
	if err != nil {
		t.Fatal(err)
	}
	if v.set.Load().hasCow {
		t.Fatal("fresh volume reports COW segments")
	}
	if spans := v.CowSpans([]Request{{VLBN: 0, Count: int(v.TotalBlocks())}}); spans != nil {
		t.Fatalf("non-COW volume produced fault spans %v", spans)
	}
	v.MarkCOW()
	if !v.set.Load().hasCow {
		t.Fatal("MarkCOW did not mark the volume")
	}

	// A sub-track write faults its whole containing track.
	faultVLBN := 2*tl + 3
	spans := v.CowSpans([]Request{{VLBN: faultVLBN, Count: 2}})
	if len(spans) != 1 {
		t.Fatalf("got %d fault spans, want 1", len(spans))
	}
	start, next, err := v.GetTrackBoundaries(faultVLBN)
	if err != nil {
		t.Fatal(err)
	}
	if spans[0].VLBN != start || int64(spans[0].Count) != next-start {
		t.Fatalf("fault span [%d,+%d), want the track [%d,%d)", spans[0].VLBN, spans[0].Count, start, next)
	}
	// A write crossing a track boundary faults both tracks as one span.
	wide := v.CowSpans([]Request{{VLBN: tl - 1, Count: 2}})
	if len(wide) != 1 || wide[0].VLBN != 0 || int64(wide[0].Count) != 2*tl {
		t.Fatalf("cross-track fault spans %v, want [0,+%d)", wide, 2*tl)
	}

	if err := v.ResolveCOW(spans); err == nil {
		t.Fatal("ResolveCOW without an allocator accepted")
	}
	v.SetCowAlloc(func(prefer *Drive, trackLen int, blocks int64) (*Drive, int64, error) {
		// Fresh drive per fault: trivially correct placement for a unit test.
		return NewDrive(disk.SmallTestDisk()), 0, nil
	})
	if err := v.ResolveCOW(spans); err != nil {
		t.Fatal(err)
	}
	// The middle-track fault splits the one segment into pre | private | post.
	if v.NumDisks() != 3 || v.TotalBlocks() != 4*tl {
		t.Fatalf("resolved volume has %d segments over %d blocks, want 3 over %d",
			v.NumDisks(), v.TotalBlocks(), 4*tl)
	}
	di, lbn, err := v.Locate(faultVLBN)
	if err != nil {
		t.Fatal(err)
	}
	if v.Disk(di) == dr.d {
		t.Fatal("faulted VLBN still maps to the shared parent drive")
	}
	if got := v.DiskStart(di) + lbn; got != faultVLBN {
		t.Fatalf("faulted VLBN round-trips to %d", got)
	}
	for _, vlbn := range []int64{0, start - 1, next, 4*tl - 1} {
		di, _, err := v.Locate(vlbn)
		if err != nil {
			t.Fatal(err)
		}
		if v.Disk(di) != dr.d {
			t.Fatalf("unfaulted VLBN %d moved off the parent drive", vlbn)
		}
	}
	// The resolved track is private now: no further faults there, while
	// the surrounding segments stay copy-on-write.
	if spans := v.CowSpans([]Request{{VLBN: faultVLBN, Count: 1}}); spans != nil {
		t.Fatalf("resolved track still faults: %v", spans)
	}
	if !v.set.Load().hasCow {
		t.Fatal("surrounding segments lost their COW mark")
	}

	// Resolving every remaining span clears the volume's COW state.
	rest := v.CowSpans([]Request{{VLBN: 0, Count: int(v.TotalBlocks())}})
	if len(rest) != 2 {
		t.Fatalf("got %d remaining fault spans, want 2 (pre and post segments)", len(rest))
	}
	if err := v.ResolveCOW(rest); err != nil {
		t.Fatal(err)
	}
	if v.set.Load().hasCow {
		t.Fatal("fully resolved volume still reports COW segments")
	}
	if spans := v.CowSpans([]Request{{VLBN: 0, Count: int(v.TotalBlocks())}}); spans != nil {
		t.Fatalf("fully resolved volume produced fault spans %v", spans)
	}

	// Allocator failure surfaces as an error, not a corrupt table.
	v.MarkCOW()
	v.SetCowAlloc(func(prefer *Drive, trackLen int, blocks int64) (*Drive, int64, error) {
		return nil, 0, fmt.Errorf("pool exhausted")
	})
	before := v.NumDisks()
	if err := v.ResolveCOW(v.CowSpans([]Request{{VLBN: 0, Count: 1}})); err == nil {
		t.Fatal("allocator failure swallowed")
	}
	if v.NumDisks() != before {
		t.Fatal("failed resolve republished the segment table")
	}

	// A span crossing a segment boundary is a caller bug and must be
	// rejected: CowSpans never produces one.
	if err := v.ResolveCOW([]Request{{VLBN: v.DiskStart(1) - 1, Count: 2}}); err == nil {
		t.Fatal("cross-segment COW span accepted")
	}
}

// TestSharedDriveSPTFIsolation is the pool-tenant arrangement under
// load: two volumes carved from ONE drive, each hammered with SPTF
// batches from its own goroutine. Every call must return exactly its
// own requests — the scheduler's window state and the completion slice
// belong to the call, and the drive is touched only under its mutex
// (run with -race).
func TestSharedDriveSPTFIsolation(t *testing.T) {
	g := disk.AtlasTenKIII()
	dr := NewDrive(g)
	const blocks = 1 << 20
	var vols [2]*Volume
	for i := range vols {
		v, err := NewFromExtents(16, []Extent{{Drive: dr, PhysStart: int64(i) * blocks, Blocks: blocks}})
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = v
	}
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	for i, v := range vols {
		wg.Add(1)
		go func(i int, v *Volume) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for round := 0; round < rounds; round++ {
				reqs := make([]Request, 2+rng.Intn(120))
				want := map[Request]int{}
				for k := range reqs {
					// A narrow span, so that windows pile up on few
					// tracks and repeat requests.
					reqs[k] = Request{VLBN: rng.Int63n(4096), Count: 1 + rng.Intn(4)}
					want[reqs[k]]++
				}
				comps, _, err := v.ServeBatch(reqs, disk.SchedSPTF)
				if err != nil {
					t.Errorf("tenant %d round %d: %v", i, round, err)
					return
				}
				for _, c := range comps {
					want[c.Req]--
				}
				for r, n := range want {
					if n != 0 {
						t.Errorf("tenant %d round %d: request %+v issued %d more times than completed", i, round, r, n)
						return
					}
				}
			}
		}(i, v)
	}
	wg.Wait()
}

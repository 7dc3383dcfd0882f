package core

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// multiBlockMapping builds a mapping with 4-block cells on the medium
// test disk.
func multiBlockMapping(t *testing.T, dims []int, b int) (*lvm.Volume, *Mapping) {
	t.Helper()
	v, err := lvm.New(32, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0, CellBlocks: b})
	if err != nil {
		t.Fatal(err)
	}
	return v, m
}

// TestMultiBlockCellsDisjoint: cells occupy non-overlapping B-block
// extents — also where cubes are packed several to a track and a chain
// head's first cell wraps its track end, so the next head's hop must
// start from the wrapped tail (the layouts after the 4-block one once
// double-booked 20–374 blocks each).
func TestMultiBlockCellsDisjoint(t *testing.T) {
	small, err := lvm.New(16, disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	medium, err := lvm.New(16, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	_, m4 := multiBlockMapping(t, []int{15, 6, 4}, 4)
	for _, m := range []*Mapping{
		m4,
		mustMapping(t, small, []int{9, 33}, MapOptions{DiskIdx: 0, CellBlocks: 2}),
		mustMapping(t, small, []int{40, 12, 6}, MapOptions{DiskIdx: 0, CellBlocks: 3}),
		mustMapping(t, medium, []int{20, 20, 20}, MapOptions{DiskIdx: 0, CellBlocks: 2}),
		mustMapping(t, medium, []int{11, 5, 4}, MapOptions{DiskIdx: 0, CellBlocks: 3}),
	} {
		b, dims := m.CellBlocks(), m.Dims()
		used := map[int64][]int{}
		enumCells(dims, func(cell []int) {
			exts, err := m.CellExtents(cell)
			if err != nil {
				t.Fatalf("CellExtents(%v): %v", cell, err)
			}
			total := 0
			for _, e := range exts {
				total += e.Count
				for i := int64(0); i < int64(e.Count); i++ {
					if prev, clash := used[e.VLBN+i]; clash {
						t.Fatalf("%v x%d: block %d used by both %v and %v", dims, b, e.VLBN+i, prev, cell)
					}
					used[e.VLBN+i] = append([]int(nil), cell...)
				}
			}
			if total != b {
				t.Fatalf("%v x%d: cell %v extents cover %d blocks, want %d", dims, b, cell, total, b)
			}
		})
		cells := 1
		for _, d := range dims {
			cells *= d
		}
		if len(used) != cells*b {
			t.Fatalf("%v x%d: %d blocks used, want %d", dims, b, len(used), cells*b)
		}
	}
}

// TestMultiBlockDim0Sequential: Dim0 neighbours are back-to-back
// B-block runs (modulo the circular track wrap).
func TestMultiBlockDim0Sequential(t *testing.T) {
	const b = 3
	dims := []int{20, 5, 3}
	v, m := multiBlockMapping(t, dims, b)
	k0 := m.Spec().K[0]
	enumCells(dims, func(cell []int) {
		if cell[0]%k0 == k0-1 || cell[0] == dims[0]-1 {
			return
		}
		a, _ := m.CellVLBN(cell)
		next := append([]int(nil), cell...)
		next[0]++
		c, _ := m.CellVLBN(next)
		if c == a+b {
			return
		}
		start, _, err := v.GetTrackBoundaries(a)
		if err != nil {
			t.Fatal(err)
		}
		// Wrap case: the successor starts at the track head.
		off := a - start
		tl, _ := v.TrackLen(a)
		if (off+b)%int64(tl) != c-start {
			t.Fatalf("cell %v at %d: Dim0 successor at %d neither contiguous nor wrapped", cell, a, c)
		}
	})
}

// TestMultiBlockSemiSeqTiming: after reading a full B-block cell, its
// Dim1 successor is reachable for settle-time cost — the adjacency
// window opens after the whole cell's transfer, as §4 promises.
func TestMultiBlockSemiSeqTiming(t *testing.T) {
	const b = 4
	dims := []int{15, 6, 4}
	v, m := multiBlockMapping(t, dims, b)
	g := v.Disk(0).Geometry()
	k := m.Spec().K
	d := v.Disk(0)
	for _, cell := range [][]int{{0, 0, 0}, {3, 1, 2}, {7, 2, 1}} {
		if cell[1]+1 >= k[1] {
			continue
		}
		next := append([]int(nil), cell...)
		next[1]++
		d.Reset()
		srcExts, err := m.CellExtents(cell)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range srcExts {
			if _, err := d.Access(disk.Request{LBN: e.VLBN - v.DiskStart(0), Count: e.Count}); err != nil {
				t.Fatal(err)
			}
		}
		dstExts, err := m.CellExtents(next)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := d.Access(disk.Request{LBN: dstExts[0].VLBN - v.DiskStart(0), Count: dstExts[0].Count})
		if err != nil {
			t.Fatal(err)
		}
		pos := cost.CommandMs + cost.SeekMs + cost.RotateMs
		hi := g.CommandMs + g.SettleMs + 5*g.SectorTimeMs(0)
		if pos > hi {
			t.Fatalf("cell %v: Dim1 hop after %d-block read costs %.3f ms, want <= %.3f",
				cell, b, pos, hi)
		}
	}
}

// TestMultiBlockDim0RunBlocks: a run of cells along Dim0 plans to
// cells*B blocks.
func TestMultiBlockDim0RunBlocks(t *testing.T) {
	const b = 2
	dims := []int{18, 5, 3}
	_, m := multiBlockMapping(t, dims, b)
	reqs, err := m.BoxRequests([]int{2, 1, 1}, []int{11, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, r := range reqs {
		total += r.Count
	}
	if total != 9*b {
		t.Fatalf("run covers %d blocks, want %d", total, 9*b)
	}
}

func TestMultiBlockValidation(t *testing.T) {
	v, err := lvm.New(32, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMapping(v, []int{10, 4}, MapOptions{DiskIdx: 0, CellBlocks: -1}); err == nil {
		t.Error("negative cell size accepted")
	}
	if _, err := NewMapping(v, []int{10, 4}, MapOptions{DiskIdx: 0, CellBlocks: 10_000}); err == nil {
		t.Error("cell larger than a track accepted")
	}
}

package core

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// testVolume returns a single-small-disk volume with D=16.
func testVolume(t *testing.T) *lvm.Volume {
	t.Helper()
	v, err := lvm.New(16, disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func mustMapping(t *testing.T, v *lvm.Volume, dims []int, opts MapOptions) *Mapping {
	t.Helper()
	m, err := NewMapping(v, dims, opts)
	if err != nil {
		t.Fatalf("NewMapping(%v): %v", dims, err)
	}
	return m
}

// enumCells iterates all cells of a grid.
func enumCells(dims []int, f func(cell []int)) {
	cell := make([]int, len(dims))
	for {
		f(cell)
		i := 0
		for i < len(dims) {
			cell[i]++
			if cell[i] < dims[i] {
				break
			}
			cell[i] = 0
			i++
		}
		if i == len(dims) {
			return
		}
	}
}

// TestMappingBijective: no two cells share a block. Its "packed" rows
// pack several cubes onto one track, with Dim0 runs that wrap their
// track's end, so a chain head's neighbour starts from the wrapped tail;
// that subtest checks that its (volume, dims) table still reaches both.
func TestMappingBijective(t *testing.T) {
	for _, dims := range [][]int{{25, 9, 7}, {12, 5}, {10, 3, 3, 2}} {
		checkBijective(t, testVolume(t), dims)
	}
	t.Run("packed", func(t *testing.T) {
		small := testVolume(t)
		medium, err := lvm.New(16, disk.MediumTestDisk())
		if err != nil {
			t.Fatal(err)
		}
		packed, wrapped := 0, 0
		for _, row := range []struct {
			vol  *lvm.Volume
			dims []int
		}{
			{small, []int{9, 33}}, {small, []int{40, 12, 6}},
			{medium, []int{20, 20, 20}}, {medium, []int{11, 5, 4}},
		} {
			p, w := checkBijective(t, row.vol, row.dims)
			packed += p
			wrapped += w
		}
		if packed == 0 || wrapped == 0 {
			t.Fatalf("%d tracks hold several cubes and %d Dim0 steps wrap a track: both must be > 0", packed, wrapped)
		}
		t.Logf("%d tracks hold several cubes, %d Dim0 steps wrap a track", packed, wrapped)
	})
}

// checkBijective fails unless the mapping of dims on v gives every cell
// its own block. It returns how many tracks hold the bases of several
// cubes and how many Dim0 steps inside a cube wrap a track's end.
func checkBijective(t *testing.T, v *lvm.Volume, dims []int) (packed, wrapped int) {
	t.Helper()
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	cubesOn := map[int64]int{} // cubes whose base lies on each track, by track start
	for _, cp := range m.cubes {
		track := cp.base - (cp.base-cp.zoneStart)%int64(cp.trackLen)
		if cubesOn[track]++; cubesOn[track] == 2 {
			packed++
		}
	}
	seen := make(map[int64][]int)
	enumCells(dims, func(cell []int) {
		vlbn, err := m.CellVLBN(cell)
		if err != nil {
			t.Fatalf("%v: CellVLBN(%v): %v", dims, cell, err)
		}
		if prev, dup := seen[vlbn]; dup {
			t.Fatalf("%v: VLBN %d stores both %v and %v", dims, vlbn, prev, cell)
		}
		seen[vlbn] = append([]int(nil), cell...)
		if cell[0]%m.spec.K[0] > 0 {
			prev := append([]int(nil), cell...)
			prev[0]--
			if p, _ := m.CellVLBN(prev); p > vlbn {
				wrapped++
			}
		}
	})
	return packed, wrapped
}

func TestMappingMatchesFig5(t *testing.T) {
	// The cached-chain mapping must agree with the paper's Figure 5
	// algorithm run through the raw LVM interface, cell for cell, on
	// every cube.
	dims := []int{25, 9, 7}
	v := testVolume(t)
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	spec := m.Spec()
	enumCells(dims, func(cell []int) {
		got, err := m.CellVLBN(cell)
		if err != nil {
			t.Fatal(err)
		}
		ci, _, _, err := m.split(cell)
		if err != nil {
			t.Fatal(err)
		}
		r := make([]int, len(cell))
		for i, x := range cell {
			r[i] = x % spec.K[i]
		}
		want, err := MapCellFig5(v, m.cubes[ci].base, spec, r)
		if err != nil {
			t.Fatalf("Fig5(%v): %v", cell, err)
		}
		if got != want {
			t.Fatalf("cell %v: CellVLBN=%d, Fig5=%d", cell, got, want)
		}
	})
}

func TestMappingDim0Sequential(t *testing.T) {
	// Cells adjacent along Dim0 within one cube map to consecutive
	// LBNs (modulo the circular track wrap).
	dims := []int{20, 6, 4}
	v := testVolume(t)
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	k0 := m.Spec().K[0]
	enumCells(dims, func(cell []int) {
		if cell[0]%k0 == k0-1 || cell[0] == dims[0]-1 {
			return // cube boundary
		}
		a, _ := m.CellVLBN(cell)
		next := append([]int(nil), cell...)
		next[0]++
		b, _ := m.CellVLBN(next)
		if b == a+1 {
			return
		}
		// Wrap: b must be the track start of a's track.
		start, nxt, err := v.GetTrackBoundaries(a)
		if err != nil {
			t.Fatal(err)
		}
		if !(a == nxt-1 && b == start) {
			t.Fatalf("cell %v -> %d, next -> %d: neither consecutive nor track wrap", cell, a, b)
		}
	})
}

func TestMappingHigherDimsAreAdjacentBlocks(t *testing.T) {
	// One step along Dimi (i >= 1) must land exactly on the
	// strides[i]-th adjacent block of the predecessor: the property
	// that makes access semi-sequential.
	dims := []int{20, 6, 4}
	v := testVolume(t)
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	spec := m.Spec()
	enumCells(dims, func(cell []int) {
		if cell[0] != 0 {
			return // chain heads only: Dim0 offset commutes (tested via Fig5)
		}
		for i := 1; i < len(dims); i++ {
			if cell[i]%spec.K[i] == spec.K[i]-1 || cell[i] == dims[i]-1 {
				continue // cube boundary
			}
			next := append([]int(nil), cell...)
			next[i]++
			a, _ := m.CellVLBN(cell)
			b, _ := m.CellVLBN(next)
			want, err := v.GetAdjacentK(a, spec.strides[i])
			if err != nil {
				t.Fatal(err)
			}
			if b != want {
				t.Fatalf("cell %v dim %d: next at %d, want adjacent block %d", cell, i, b, want)
			}
		}
	})
}

func TestMappingCubesStayInZone(t *testing.T) {
	// A basic cube never crosses a zone boundary (§4.2): every chain
	// head of a cube lies in the cube's zone extent.
	dims := []int{28, 14, 12} // big enough to spill into zone 1 of the small disk
	v := testVolume(t)
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	zones := v.Zones()
	zoneOf := func(vlbn int64) int {
		for i, z := range zones {
			if vlbn >= z.StartVLBN && vlbn < z.StartVLBN+z.Blocks {
				return i
			}
		}
		return -1
	}
	for ci := range m.cubes {
		cz := zoneOf(m.cubes[ci].base)
		if cz < 0 {
			t.Fatalf("cube %d base outside any zone", ci)
		}
		for _, h := range m.cubes[ci].heads {
			if zoneOf(h) != cz {
				t.Fatalf("cube %d crosses zones: base in %d, head %d elsewhere", ci, cz, h)
			}
		}
	}
}

// TestMappingDeclustersAcrossDisks: with DiskIdx -1 the basic cubes
// spread over both member disks. The grid is sized to build several
// cubes on two SmallTestDisks (4, two per disk); a grid that fits one
// cube would observe nothing, so that is a failure, not a skip.
func TestMappingDeclustersAcrossDisks(t *testing.T) {
	v, err := lvm.New(16, disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, v, []int{30, 28, 24}, MapOptions{DiskIdx: -1})
	if len(m.cubes) < 2 {
		t.Fatalf("grid builds %d cube(s); declustering needs at least 2", len(m.cubes))
	}
	seen := map[int]bool{}
	for ci := 0; ci < len(m.cubes); ci++ {
		seen[m.cubes[ci].diskIdx] = true
	}
	if len(seen) != 2 {
		t.Errorf("cubes on %d disks, want 2", len(seen))
	}
}

func TestMappingPinsToDisk(t *testing.T) {
	v, err := lvm.New(16, disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	m := mustMapping(t, v, []int{30, 14, 12}, MapOptions{DiskIdx: 1})
	for ci := 0; ci < len(m.cubes); ci++ {
		if m.cubes[ci].diskIdx != 1 {
			t.Fatalf("cube %d on disk %d, want 1", ci, m.cubes[ci].diskIdx)
		}
	}
}

func TestMappingTooBig(t *testing.T) {
	v := testVolume(t)
	if _, err := NewMapping(v, []int{4000, 400, 400}, MapOptions{DiskIdx: 0}); err == nil {
		t.Error("oversized dataset accepted")
	}
}

func TestMappingValidation(t *testing.T) {
	v := testVolume(t)
	if _, err := NewMapping(v, []int{10}, MapOptions{}); err == nil {
		t.Error("1-D accepted")
	}
	m := mustMapping(t, v, []int{10, 4}, MapOptions{DiskIdx: 0})
	if _, err := m.CellVLBN([]int{1}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := m.CellVLBN([]int{10, 0}); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
	if _, err := m.CellVLBN([]int{-1, 0}); err == nil {
		t.Error("negative coordinate accepted")
	}
}

// TestDim0RunCoversCells: a box one row thick plans to the blocks of
// its run of cells along Dim0 and no others but the declared padding.
func TestDim0RunCoversCells(t *testing.T) {
	dims := []int{33, 5, 4}
	v := testVolume(t)
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	for _, run := range []struct{ start, length int }{
		{0, 33}, {5, 20}, {30, 3}, {0, 1},
	} {
		reqs, pad, err := m.BoxRequests([]int{run.start, 2, 1}, []int{run.start + run.length, 3, 2})
		if err != nil {
			t.Fatalf("run %+v: %v", run, err)
		}
		want := map[int64]bool{}
		for x := run.start; x < run.start+run.length; x++ {
			vlbn, _ := m.CellVLBN([]int{x, 2, 1})
			want[vlbn] = true
		}
		got := map[int64]bool{}
		total := 0
		for _, r := range reqs {
			for i := 0; i < r.Count; i++ {
				got[r.VLBN+int64(i)] = true
			}
			total += r.Count
		}
		if total != run.length+int(pad) {
			t.Fatalf("run %+v: requests cover %d blocks, want %d plus %d padding", run, total, run.length, pad)
		}
		for vlbn := range want {
			if !got[vlbn] {
				t.Fatalf("run %+v: cell block %d missing from requests", run, vlbn)
			}
		}
	}
	if _, _, err := m.BoxRequests([]int{30, 0, 0}, []int{40, 1, 1}); err == nil {
		t.Error("run past Dim0 end accepted")
	}
	if _, _, err := m.BoxRequests([]int{0, 0, 0}, []int{0, 1, 1}); err == nil {
		t.Error("zero-length run accepted")
	}
}

// TestMappingBlocks: the mapping reserves whole basic cubes, ceil(Si/Ki)
// along each dimension (§4.4), and its span on the disk holds all of
// their blocks, unfilled edge-cube space included.
func TestMappingBlocks(t *testing.T) {
	v := testVolume(t)
	dims := []int{25, 9, 7}
	m := mustMapping(t, v, dims, MapOptions{DiskIdx: 0})
	k := m.Spec().K
	cubes, cells := 1, int64(1)
	for i, s := range dims {
		per := (s + k[i] - 1) / k[i]
		if m.cubesPerDim[i] != per {
			t.Errorf("dim %d: %d cubes, want ceil(%d/%d) = %d", i, m.cubesPerDim[i], s, k[i], per)
		}
		cubes *= per
		cells *= int64(k[i])
	}
	if len(m.cubes) != cubes {
		t.Fatalf("placed %d cubes, want %d", len(m.cubes), cubes)
	}
	start, end := m.SpanOnDisk(0)
	if end-start < int64(cubes)*cells {
		t.Errorf("span [%d,%d) holds %d blocks, fewer than %d cubes of %d", start, end, end-start, cubes, cells)
	}
	if end > m.NextFreeVLBN() {
		t.Errorf("span ends at %d, past the next free VLBN %d", end, m.NextFreeVLBN())
	}
}

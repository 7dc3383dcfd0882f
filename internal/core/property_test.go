package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// TestMappingBijectiveQuick: MultiMap is a bijection from cells to
// blocks for random dataset shapes and dimensionalities.
func TestMappingBijectiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3) // 2-4 dims
		dims := make([]int, n)
		cells := 1
		for i := range dims {
			dims[i] = 2 + rng.Intn(9)
			cells *= dims[i]
		}
		if cells > 4000 {
			return true // keep the check fast
		}
		v, err := lvm.New(16, disk.SmallTestDisk())
		if err != nil {
			return false
		}
		m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
		if err != nil {
			// Tiny disk: some shapes legitimately don't fit.
			return true
		}
		seen := map[int64]bool{}
		ok := true
		enumCells(dims, func(cell []int) {
			vlbn, err := m.CellVLBN(cell)
			if err != nil || seen[vlbn] {
				ok = false
				return
			}
			seen[vlbn] = true
		})
		return ok && len(seen) == cells
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMappingEquationsHoldQuick: every constructed mapping satisfies the
// paper's Equations 1-3 against its volume.
func TestMappingEquationsHoldQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{2 + rng.Intn(40), 2 + rng.Intn(20), 2 + rng.Intn(10)}
		v, err := lvm.New(16, disk.MediumTestDisk())
		if err != nil {
			return false
		}
		m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
		if err != nil {
			return true
		}
		spec := m.Spec()
		// Eq. 1: K0 fits every zone the mapping used.
		for _, z := range v.Zones() {
			if z.TrackLen >= spec.K[0] {
				continue
			}
			// Zones shorter than K0 must hold no cubes.
			for ci := 0; ci < m.NumCubes(); ci++ {
				base, _ := m.CellVLBN(zeroCell(dims, ci, m))
				if base >= z.StartVLBN && base < z.StartVLBN+z.Blocks {
					return false
				}
			}
		}
		// Eq. 3.
		inner := 1
		for i := 1; i < spec.N()-1; i++ {
			inner *= spec.K[i]
		}
		return inner <= v.AdjacencyDepth()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// zeroCell returns some cell of cube ci (its grid origin).
func zeroCell(dims []int, ci int, m *Mapping) []int {
	cell := make([]int, len(dims))
	rem := ci
	for i := range dims {
		cpd := m.CubesPerDim()[i]
		cell[i] = (rem % cpd) * m.Spec().K[i]
		rem /= cpd
	}
	return cell
}

// TestDim0RunMatchesPerCellQuick: a random run of cells along Dim0
// plans to exactly the blocks of the per-cell mapping.
func TestDim0RunMatchesPerCellQuick(t *testing.T) {
	v, err := lvm.New(16, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{50, 9, 6}
	m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x1, x2 := rng.Intn(dims[1]), rng.Intn(dims[2])
		start := rng.Intn(dims[0])
		length := 1 + rng.Intn(dims[0]-start)
		reqs, err := m.BoxRequests([]int{start, x1, x2}, []int{start + length, x1 + 1, x2 + 1})
		if err != nil {
			return false
		}
		want := map[int64]bool{}
		for x := start; x < start+length; x++ {
			vlbn, err := m.CellVLBN([]int{x, x1, x2})
			if err != nil {
				return false
			}
			want[vlbn] = true
		}
		got := 0
		for _, r := range reqs {
			for i := 0; i < r.Count; i++ {
				if !want[r.VLBN+int64(i)] {
					return false
				}
				got++
			}
		}
		return got == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMappingsAreDisjointQuick: two mappings sharing a disk through
// StartVLBN never overlap.
func TestMappingsAreDisjointQuick(t *testing.T) {
	v, err := lvm.New(16, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewMapping(v, []int{30, 8, 5}, MapOptions{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMapping(v, []int{20, 6, 4}, MapOptions{DiskIdx: 0, StartVLBN: a.NextFreeVLBN()})
	if err != nil {
		t.Fatal(err)
	}
	blocksA := map[int64]bool{}
	enumCells(a.Dims(), func(cell []int) {
		vlbn, err := a.CellVLBN(cell)
		if err != nil {
			t.Fatal(err)
		}
		blocksA[vlbn] = true
	})
	enumCells(b.Dims(), func(cell []int) {
		vlbn, err := b.CellVLBN(cell)
		if err != nil {
			t.Fatal(err)
		}
		if blocksA[vlbn] {
			t.Fatalf("mappings overlap at VLBN %d", vlbn)
		}
	})
}

// TestSemiSeqCostInvariant: fetching any two Dim1-adjacent cells in
// sequence costs the semi-sequential step, regardless of position in
// the dataset (as long as both are in the same cube).
func TestSemiSeqCostInvariant(t *testing.T) {
	g := disk.MediumTestDisk()
	v, err := lvm.New(16, g)
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{40, 12, 6}
	m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	k := m.Spec().K
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		x0, x1, x2 := rng.Intn(dims[0]), rng.Intn(dims[1]-1), rng.Intn(dims[2])
		if (x1+1)%k[1] == 0 {
			continue // cube boundary
		}
		a, err := m.CellVLBN([]int{x0, x1, x2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.CellVLBN([]int{x0, x1 + 1, x2})
		if err != nil {
			t.Fatal(err)
		}
		d := v.Disk(0)
		d.Reset()
		if _, err := d.Access(disk.Request{LBN: a - v.DiskStart(0), Count: 1}); err != nil {
			t.Fatal(err)
		}
		cost, err := d.Access(disk.Request{LBN: b - v.DiskStart(0), Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		if limit := g.SemiSeqStepMs(0) * 1.05; cost.TotalMs() > limit {
			t.Fatalf("cell (%d,%d,%d)->Dim1 next cost %.3f ms, semi-seq limit %.3f",
				x0, x1, x2, cost.TotalMs(), limit)
		}
	}
}

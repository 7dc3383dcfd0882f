package core

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// TestHighDimensionalMapping exercises §4.3: a disk with adjacency
// depth D supports up to 2 + log2(D) dimensions. MediumTestDisk at
// D=32 supports 7; map a 6-D dataset and check every invariant.
func TestHighDimensionalMapping(t *testing.T) {
	v, err := lvm.New(32, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	dims := []int{12, 3, 3, 2, 2, 2}
	m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
	if err != nil {
		t.Fatalf("6-D mapping: %v", err)
	}
	spec := m.Spec()
	if spec.N() != 6 {
		t.Fatalf("spec has %d dims", spec.N())
	}
	inner := 1
	for i := 1; i <= spec.N()-2; i++ {
		inner *= spec.K[i]
	}
	if inner > 32 {
		t.Fatalf("Eq.3 violated: inner product %d > D=32", inner)
	}
	// Bijectivity across all 864 cells.
	seen := map[int64]bool{}
	enumCells(dims, func(cell []int) {
		vlbn, err := m.CellVLBN(cell)
		if err != nil {
			t.Fatalf("CellVLBN(%v): %v", cell, err)
		}
		if seen[vlbn] {
			t.Fatalf("duplicate block for %v", cell)
		}
		seen[vlbn] = true
	})
	// Every in-cube step along every dimension >= 1 is an adjacency hop.
	g := v.Disk(0).Geometry()
	d := v.Disk(0)
	cell := make([]int, 6)
	for dim := 1; dim < 6; dim++ {
		for i := range cell {
			cell[i] = 0
		}
		if spec.K[dim] < 2 {
			continue
		}
		a, _ := m.CellVLBN(cell)
		cell[dim] = 1
		b, _ := m.CellVLBN(cell)
		if _, err := d.Access(disk.Request{LBN: a - v.DiskStart(0), Count: 1}); err != nil {
			t.Fatal(err)
		}
		cost, err := d.Access(disk.Request{LBN: b - v.DiskStart(0), Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		if pos := cost.CommandMs + cost.SeekMs + cost.RotateMs; pos > g.CommandMs+g.SettleMs+4*g.RotationMs()/float64(g.TrackLen(0)) {
			t.Errorf("dim %d step costs %.3f ms: not semi-sequential", dim, pos)
		}
	}
}

// TestBeyondMaxDimsRejected: a dataset needing more dimensions than
// Eq. 5 allows must be rejected, not silently mis-mapped.
func TestBeyondMaxDimsRejected(t *testing.T) {
	v, err := lvm.New(4, disk.MediumTestDisk()) // D=4 -> Nmax=4
	if err != nil {
		t.Fatal(err)
	}
	// 6-D with middle dims forced >= 2 each needs inner product >= 16 > 4.
	// ChooseBasicCube shrinks middles to 1 instead, which still maps —
	// so the right check is that the spec honours Eq. 3.
	m, err := NewMapping(v, []int{12, 2, 2, 2, 2, 2}, MapOptions{DiskIdx: 0})
	if err != nil {
		return // rejection is acceptable
	}
	inner := 1
	for i := 1; i <= m.Spec().N()-2; i++ {
		inner *= m.Spec().K[i]
	}
	if inner > 4 {
		t.Fatalf("Eq.3 violated at D=4: inner %d", inner)
	}
}

// TestMixedDriveVolume: a volume mixing both paper drives still maps
// and declusters correctly (different zone tables per member).
func TestMixedDriveVolume(t *testing.T) {
	v, err := lvm.New(0, disk.AtlasTenKIII(), disk.CheetahThirtySixES())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMapping(v, []int{100, 50, 20}, MapOptions{DiskIdx: -1})
	if err != nil {
		t.Fatal(err)
	}
	disks := map[int]bool{}
	for ci := 0; ci < len(m.cubes); ci++ {
		disks[m.cubes[ci].diskIdx] = true
	}
	if len(m.cubes) >= 2 && len(disks) != 2 {
		t.Errorf("cubes not declustered across mixed drives: %v", disks)
	}
	seen := map[int64]bool{}
	enumCells([]int{100, 50, 20}, func(cell []int) {
		vlbn, err := m.CellVLBN(cell)
		if err != nil {
			t.Fatalf("CellVLBN(%v): %v", cell, err)
		}
		if seen[vlbn] {
			t.Fatalf("duplicate block")
		}
		seen[vlbn] = true
	})
}

package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/olap"
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
			for ci := 0; ci < len(m.cubes); ci++ {
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
		cpd := m.cubesPerDim[i]
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

// TestSemiSeqCostInvariant: fetching a cell right after its neighbour
// along any non-primary dimension costs at most the semi-sequential
// step of the cell's own zone, wherever the pair sits in the dataset
// (as long as both are in the same cube). It runs on both paper drives
// over the figures' datasets — the Fig. 6 grids at 64³, 130³ and 259³
// and the Fig. 8 cube — and in every cube, so in every zone they touch,
// walks two lines along each non-primary dimension, each through a
// random cell. One more case keeps a small drive at a non-default
// adjacency depth: the medium test disk at depth 16 over 40×12×6.
// -short walks every eighth cube.
func TestSemiSeqCostInvariant(t *testing.T) {
	every := 1
	if testing.Short() {
		every = 8
	}
	type semiSeqCase struct {
		g     *disk.Geometry
		depth int // 0: the drive's default
		dims  []int
	}
	var cases []semiSeqCase
	for _, g := range []*disk.Geometry{disk.AtlasTenKIII(), disk.CheetahThirtySixES()} {
		for _, dims := range [][]int{{64, 64, 64}, {130, 130, 130}, {259, 259, 259}, olap.ChunkDims()} {
			cases = append(cases, semiSeqCase{g, 0, dims})
		}
	}
	cases = append(cases, semiSeqCase{disk.MediumTestDisk(), 16, []int{40, 12, 6}})
	steps, worst := 0, 0.0
	zones := map[string]map[int]bool{}
	for _, c := range cases {
		g, dims := c.g, c.dims
		if zones[g.Name] == nil {
			zones[g.Name] = map[int]bool{}
		}
		v, err := lvm.New(c.depth, g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		k := m.Spec().K
		d := v.Disk(0)
		rng := rand.New(rand.NewSource(6))
		cube := make([]int, len(dims))
		for ci := 0; ci < len(m.cubes); ci++ {
			if ci%every != 0 {
				continue
			}
			// cube walks the cube grid, Dim0 fastest.
			for j, rest := 0, ci; j < len(dims); j++ {
				cube[j], rest = rest%m.cubesPerDim[j], rest/m.cubesPerDim[j]
			}
			lo, hi := make([]int, len(dims)), make([]int, len(dims))
			for j := range dims {
				lo[j] = cube[j] * k[j]
				hi[j] = min(lo[j]+k[j], dims[j])
			}
			for i := 1; i < len(dims); i++ {
				for rep := 0; rep < 2; rep++ {
					line := make([]int, len(dims))
					for j := range dims {
						line[j] = lo[j] + rng.Intn(hi[j]-lo[j])
					}
					for line[i] = lo[i]; line[i] < hi[i]; line[i]++ {
						vlbn, err := m.CellVLBN(line)
						if err != nil {
							t.Fatal(err)
						}
						lbn := vlbn - v.DiskStart(0)
						cost, err := d.Access(disk.Request{LBN: lbn, Count: 1})
						if err != nil {
							t.Fatal(err)
						}
						if line[i] == lo[i] {
							continue // the line's first fetch seeks from where the last line ended
						}
						limit := g.SemiSeqStepMs(lbn)
						if cost.TotalMs() > limit*1.05 {
							t.Fatalf("%s %v: cell %v after its Dim%d neighbour costs %.3f ms, semi-seq limit %.3f",
								g.Name, dims, line, i, cost.TotalMs(), limit)
						}
						steps++
						worst = max(worst, cost.TotalMs()/limit)
						zones[g.Name][g.ZoneIndexOf(lbn)] = true
					}
				}
			}
		}
	}
	t.Logf("zones %v; %d steps, worst %.3f × the semi-sequential step", zones, steps, worst)
}

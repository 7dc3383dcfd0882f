package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// The box planner Mapping.BoxRequests replaced, kept as the oracle: the
// storage manager expanded a box into Dim0 runs, one Mapping.Dim0Run
// call (refDim0Run here) per row of the box (runsForBox, stepping dims
// >= 1 with Dim1 fastest), then sorted and coalesced them all
// (lvm.Coalesce at gap 0), and its executor merged the result again at
// the bridge gap it computed from the volume's zones (refBridgeGap). It
// shares the cubes' chain heads with the production planner and nothing
// else.

// refBridgeGap is the executor's bridge gap: an eighth of the volume's
// shortest track, capped at 64 blocks.
func refBridgeGap(vol *lvm.Volume) int {
	minT := 1 << 30
	for _, z := range vol.Zones() {
		if z.TrackLen < minT {
			minT = z.TrackLen
		}
	}
	gap := minT / 8
	if gap > 64 {
		gap = 64
	}
	return gap
}

// refSplit returns the cube index and in-cube coordinates of a cell.
func (m *Mapping) refSplit(cell []int) (cubeIdx int, r []int, err error) {
	if len(cell) != len(m.dims) {
		return 0, nil, fmt.Errorf("core: cell has %d dims, want %d", len(cell), len(m.dims))
	}
	r = make([]int, len(cell))
	for i, x := range cell {
		if x < 0 || x >= m.dims[i] {
			return 0, nil, fmt.Errorf("core: coordinate %d = %d outside [0,%d)", i, x, m.dims[i])
		}
		cubeIdx += x / m.spec.K[i] * m.cubeStride[i]
		r[i] = x % m.spec.K[i]
	}
	return cubeIdx, r, nil
}

// refDim0Run expands a run of cells along Dim0 starting at cell (which
// must be in range) into at most a few contiguous VLBN requests: one
// per basic cube crossed, plus one extra when a run wraps past its
// track end. length cells are covered.
func (m *Mapping) refDim0Run(cell []int, length int) ([]lvm.Request, error) {
	if length <= 0 {
		return nil, fmt.Errorf("core: run length must be positive, got %d", length)
	}
	if cell[0]+length > m.dims[0] {
		return nil, fmt.Errorf("core: run [%d,+%d) exceeds Dim0 length %d", cell[0], length, m.dims[0])
	}
	cur := append([]int(nil), cell...)
	var out []lvm.Request
	remaining := length
	for remaining > 0 {
		ci, r, err := m.refSplit(cur)
		if err != nil {
			return nil, err
		}
		cp := &m.cubes[ci]
		inCube := m.spec.K[0] - r[0]
		if inCube > remaining {
			inCube = remaining
		}
		inner := 0
		for i := 1; i < len(r); i++ {
			inner += r[i] * m.spec.strides[i]
		}
		head := cp.heads[inner]
		off := (head - cp.zoneStart) % int64(cp.trackLen)
		trackStart := head - off
		start := (off + int64(r[0])) % int64(cp.trackLen)
		blocks := int64(inCube)
		// First segment: up to the track end.
		seg := int64(cp.trackLen) - start
		if seg > blocks {
			seg = blocks
		}
		out = append(out, lvm.Request{VLBN: trackStart + start, Count: int(seg)})
		if rest := blocks - seg; rest > 0 {
			out = append(out, lvm.Request{VLBN: trackStart, Count: int(rest)})
		}
		cur[0] += inCube
		remaining -= inCube
	}
	return out, nil
}

// runsForBox expands a box into Dim0 runs, stepping the remaining
// dimensions in row-major order (Dim1 fastest — adjacency-chain order).
func (m *Mapping) runsForBox(lo, hi []int) ([]lvm.Request, error) {
	length := hi[0] - lo[0]
	cell := append([]int(nil), lo...)
	var out []lvm.Request
	for {
		reqs, err := m.refDim0Run(cell, length)
		if err != nil {
			return nil, err
		}
		out = append(out, reqs...)
		if !nextInBoxAbove0(cell, lo, hi) {
			return out, nil
		}
	}
}

// nextInBoxAbove0 advances only dimensions >= 1.
func nextInBoxAbove0(cell, lo, hi []int) bool {
	for i := 1; i < len(cell); i++ {
		cell[i]++
		if cell[i] < hi[i] {
			return true
		}
		cell[i] = lo[i]
	}
	return false
}

// boxCoverage counts the compared boxes that exercised the two places a
// row's requests split: a basic-cube boundary and a track-end wrap.
type boxCoverage struct{ boxes, crossCube, wrap int }

func (m *Mapping) checkBoxRef(t *testing.T, cov *boxCoverage, lo, hi []int) {
	t.Helper()
	runs, err := m.runsForBox(lo, hi)
	if err != nil {
		t.Fatalf("ref box [%v,%v): %v", lo, hi, err)
	}
	rows, crossed := 1, false
	for i := range lo {
		if i > 0 {
			rows *= hi[i] - lo[i]
		}
		crossed = crossed || lo[i]/m.spec.K[i] != (hi[i]-1)/m.spec.K[i]
	}
	cubesPerRow := (hi[0]-1)/m.spec.K[0] - lo[0]/m.spec.K[0] + 1
	cov.boxes++
	if crossed {
		cov.crossCube++
	}
	if len(runs) > rows*cubesPerRow {
		cov.wrap++
	}
	want, _ := lvm.Coalesce(runs, 0)
	want, wantPad := lvm.Coalesce(want, refBridgeGap(m.vol))
	got, pad, err := m.BoxRequests(lo, hi)
	if err != nil {
		t.Fatalf("box [%v,%v): %v", lo, hi, err)
	}
	if !slices.Equal(got, want) || pad != wantPad {
		t.Fatalf("box [%v,%v):\n walk %v +%d\n ref  %v +%d", lo, hi, got, pad, want, wantPad)
	}
}

// TestBoxRequestsMatchesRef: the cube walk's request list and padding
// are == the per-row plan's, bridged as the executor bridged it, on the curve planner's grid shapes (elongated, 2-D,
// 4-D, a single cell, a power of two), on every box of a small grid,
// on beams along every dimension, and on a dataset declustered over two
// disks — simulated time depends on every request. The boxes must cross
// cube boundaries and track wraps. Each shape is placed twice, one copy
// after the other (StartVLBN), as the earthquake octree places its
// levels: subtest "xN" plans the N-th copy, so the second runs the
// planner on cubes that start mid-volume.
func TestBoxRequestsMatchesRef(t *testing.T) {
	oneDisk, err := lvm.New(16, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	twoDisks, err := lvm.New(16, disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	type layout struct {
		vol  *lvm.Volume
		disk int
	}
	layouts := []layout{{oneDisk, 0}, {twoDisks, -1}}
	shapes := [][]int{{11, 5, 4}, {19, 19, 19}, {9, 33}, {33, 2, 5}, {5, 3, 7, 4}, {1, 1}, {16, 16, 16}, {40, 12, 6}}
	rng := rand.New(rand.NewSource(29))
	var cov boxCoverage
	for _, lay := range layouts {
		for _, dims := range shapes {
			first := mustMapping(t, lay.vol, dims, MapOptions{DiskIdx: lay.disk})
			second := mustMapping(t, lay.vol, dims, MapOptions{DiskIdx: lay.disk, StartVLBN: first.NextFreeVLBN()})
			for di := 0; di < lay.vol.NumDisks(); di++ {
				if start, end := second.SpanOnDisk(di); start < end && start < first.NextFreeVLBN() {
					t.Fatalf("%v: second copy starts at %d on disk %d, inside the first (ends %d)", dims, start, di, first.NextFreeVLBN())
				}
			}
			for n, m := range []*Mapping{first, second} {
				t.Run(fmt.Sprint(dims, "x", n+1, "disk", lay.disk), func(t *testing.T) {
					lo, hi := make([]int, len(dims)), make([]int, len(dims))
					copy(hi, dims)
					m.checkBoxRef(t, &cov, lo, hi) // the whole grid
					for trial := 0; trial < 60; trial++ {
						for i, d := range dims {
							lo[i] = rng.Intn(d)
							hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
						}
						m.checkBoxRef(t, &cov, lo, hi)
					}
					// Beams along every dimension.
					for k := range dims {
						for trial := 0; trial < 8; trial++ {
							for i, d := range dims {
								lo[i] = rng.Intn(d)
								hi[i] = lo[i] + 1
							}
							lo[k], hi[k] = 0, dims[k]
							m.checkBoxRef(t, &cov, lo, hi)
						}
					}
				})
			}
		}
		// Every box of a small grid.
		dims := []int{5, 4, 3}
		m := mustMapping(t, lay.vol, dims, MapOptions{DiskIdx: lay.disk})
		lo, hi := make([]int, 3), make([]int, 3)
		for lo[0] = 0; lo[0] < dims[0]; lo[0]++ {
			for hi[0] = lo[0] + 1; hi[0] <= dims[0]; hi[0]++ {
				for lo[1] = 0; lo[1] < dims[1]; lo[1]++ {
					for hi[1] = lo[1] + 1; hi[1] <= dims[1]; hi[1]++ {
						for lo[2] = 0; lo[2] < dims[2]; lo[2]++ {
							for hi[2] = lo[2] + 1; hi[2] <= dims[2]; hi[2]++ {
								m.checkBoxRef(t, &cov, lo, hi)
							}
						}
					}
				}
			}
		}
	}
	if cov.crossCube == 0 || cov.wrap == 0 {
		t.Fatalf("of %d boxes, %d crossed a cube boundary and %d wrapped a track: both must be > 0",
			cov.boxes, cov.crossCube, cov.wrap)
	}
	t.Logf("%d boxes: %d crossed a cube boundary, %d wrapped a track", cov.boxes, cov.crossCube, cov.wrap)
}

// BenchmarkBoxRequests plans the paper's query shapes on its 259³ grid
// (atlas10k3, D = 128): the cube walk beside the per-row reference.
func BenchmarkBoxRequests(b *testing.B) {
	v, err := lvm.New(0, disk.AtlasTenKIII())
	if err != nil {
		b.Fatal(err)
	}
	dims := []int{259, 259, 259}
	m, err := NewMapping(v, dims, MapOptions{DiskIdx: 0})
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct {
		name string
		side [3]int
	}{
		{"beam0", [3]int{259, 1, 1}}, {"beam1", [3]int{1, 259, 1}},
		{"4^3", [3]int{4, 4, 4}}, {"16^3", [3]int{16, 16, 16}},
		{"32^3", [3]int{32, 32, 32}}, {"128^3", [3]int{128, 128, 128}},
	}
	for _, sh := range shapes {
		// 16 placements a shape, so no one alignment sets the figure.
		rng := rand.New(rand.NewSource(5))
		var los, his [16][]int
		for p := range los {
			los[p], his[p] = make([]int, 3), make([]int, 3)
			for i := range dims {
				los[p][i] = rng.Intn(dims[i] - sh.side[i] + 1)
				his[p][i] = los[p][i] + sh.side[i]
			}
		}
		b.Run(sh.name+"/walk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.BoxRequests(los[i%16], his[i%16]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runs, err := m.runsForBox(los[i%16], his[i%16])
				if err != nil {
					b.Fatal(err)
				}
				runs, _ = lvm.Coalesce(runs, 0)
				lvm.Coalesce(runs, m.bridgeGap)
			}
		})
	}
}

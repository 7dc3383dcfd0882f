package mapping

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/sfc"
)

// refCurve is the box planner curveMapper.BoxRequests replaced, kept as
// the oracle: one curve key per cell of the box, sorted, each turned
// into a rank by binary search in the sorted keys of the whole grid,
// consecutive ranks coalesced. It uses nothing of a curve but Key, so
// it shares no logic with the hierarchy walk it checks.
type refCurve struct {
	curve sfc.Curve
	keys  []uint64 // the key of every grid cell, ascending
	base  int64
}

func newCurve(t testing.TB, kind Kind, dims []int) sfc.Curve {
	t.Helper()
	var c sfc.Curve
	var err error
	switch kind {
	case ZOrder:
		c, err = sfc.NewZOrder(dims)
	case Hilbert:
		c, err = sfc.NewHilbert(dims)
	case Gray:
		c, err = sfc.NewGrayCurve(dims)
	default:
		t.Fatalf("%v is not a curve mapping", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newRefCurve(t testing.TB, kind Kind, dims []int, base int64) *refCurve {
	t.Helper()
	r := &refCurve{curve: newCurve(t, kind, dims), base: base}
	r.keys = r.boxKeys(t, make([]int, len(dims)), dims)
	return r
}

// boxKeys returns the key of every cell of [lo,hi), ascending.
func (r *refCurve) boxKeys(t testing.TB, lo, hi []int) []uint64 {
	t.Helper()
	n := 1
	for i := range lo {
		n *= hi[i] - lo[i]
	}
	keys := make([]uint64, 0, n)
	cell := slices.Clone(lo)
	for {
		k, err := r.curve.Key(cell)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		if !nextInBox(cell, lo, hi) {
			break
		}
	}
	slices.Sort(keys)
	return keys
}

func nextInBox(cell, lo, hi []int) bool {
	for i := range cell {
		if cell[i]++; cell[i] < hi[i] {
			return true
		}
		cell[i] = lo[i]
	}
	return false
}

func (r *refCurve) boxRequests(t testing.TB, lo, hi []int) []lvm.Request {
	t.Helper()
	keys := r.boxKeys(t, lo, hi)
	for i, k := range keys {
		rank, ok := slices.BinarySearch(r.keys, k)
		if !ok {
			t.Fatalf("key %d not in ranked grid", k)
		}
		keys[i] = uint64(rank)
	}
	var out []lvm.Request
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[j-1]+1 {
			j++
		}
		out = append(out, lvm.Request{VLBN: r.base + int64(keys[i]), Count: j - i})
		i = j
	}
	return out
}

// boxRef is an oracle for one mapper's BoxRequests.
type boxRef interface {
	boxRequests(t testing.TB, lo, hi []int) []lvm.Request
}

// refKinds are the layouts with an oracle in this package; MultiMap's
// is in internal/core.
var refKinds = []Kind{ZOrder, Hilbert, Gray, Naive}

// planPair builds the production mapper and its oracle on one extent,
// at the start of disk di's segment.
func planPair(t testing.TB, v *lvm.Volume, kind Kind, dims []int, di int) (Mapper, boxRef) {
	t.Helper()
	m, err := New(kind, v, dims, Options{DiskIdx: di})
	if err != nil {
		t.Fatal(err)
	}
	if kind == Naive {
		return m, refNaive{m.(*naiveMapper)}
	}
	return m, newRefCurve(t, kind, dims, v.DiskStart(di))
}

func checkBox(t testing.TB, m Mapper, ref boxRef, lo, hi []int) {
	t.Helper()
	got, pad, err := m.BoxRequests(lo, hi)
	if err != nil {
		t.Fatalf("box [%v,%v): %v", lo, hi, err)
	}
	if want := ref.boxRequests(t, lo, hi); !slices.Equal(got, want) || pad != 0 {
		t.Fatalf("box [%v,%v):\n plan %v +%d\n ref  %v +0", lo, hi, got, pad, want)
	}
}

// TestBoxRequestsMatchesRef: the curve walk's request list is == the
// sorted per-cell plan's on every curve, and Naive's slab arithmetic
// is == the per-row plan's, over grids that are elongated, square off
// a power of two, 2-D, one bit wide in a dimension, 4-D, a single
// cell, and a power of two — simulated time depends on every request.
// Subtest "xN" places the extent on the volume's N-th disk: the second
// disk's segment starts past the first's, so a planner that lost the
// extent's base would fail there.
func TestBoxRequestsMatchesRef(t *testing.T) {
	v, err := lvm.New(16, disk.SmallTestDisk(), disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	shapes := [][]int{{11, 5, 4}, {19, 19, 19}, {9, 33}, {33, 2, 5}, {5, 3, 7, 4}, {1, 1}, {16, 16, 16}}
	rng := rand.New(rand.NewSource(23))
	for _, kind := range refKinds {
		for _, dims := range shapes {
			for di := range 2 {
				t.Run(fmt.Sprint(kind, dims, "x", di+1), func(t *testing.T) {
					m, ref := planPair(t, v, kind, dims, di)
					lo, hi := make([]int, len(dims)), make([]int, len(dims))
					copy(hi, dims)
					checkBox(t, m, ref, lo, hi) // the whole grid
					for trial := 0; trial < 60; trial++ {
						for i, d := range dims {
							lo[i] = rng.Intn(d)
							hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
						}
						checkBox(t, m, ref, lo, hi)
					}
					// Beams along every dimension.
					for k := range dims {
						for trial := 0; trial < 8; trial++ {
							for i, d := range dims {
								lo[i] = rng.Intn(d)
								hi[i] = lo[i] + 1
							}
							lo[k], hi[k] = 0, dims[k]
							checkBox(t, m, ref, lo, hi)
						}
					}
				})
			}
		}
		// Every box of a small grid.
		dims := []int{5, 4, 3}
		m, ref := planPair(t, v, kind, dims, 1)
		lo, hi := make([]int, 3), make([]int, 3)
		for lo[0] = 0; lo[0] < dims[0]; lo[0]++ {
			for hi[0] = lo[0] + 1; hi[0] <= dims[0]; hi[0]++ {
				for lo[1] = 0; lo[1] < dims[1]; lo[1]++ {
					for hi[1] = lo[1] + 1; hi[1] <= dims[1]; hi[1]++ {
						for lo[2] = 0; lo[2] < dims[2]; lo[2]++ {
							for hi[2] = lo[2] + 1; hi[2] <= dims[2]; hi[2]++ {
								checkBox(t, m, ref, lo, hi)
							}
						}
					}
				}
			}
		}
	}
}

func TestBoxRequestsRejectsBadBox(t *testing.T) {
	v := testVolume(t)
	for _, kind := range []Kind{Naive, ZOrder, Hilbert, Gray, MultiMap} {
		m, err := New(kind, v, []int{6, 5}, Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range [][2][]int{
			{{0}, {1}}, {{-1, 0}, {1, 1}}, {{0, 0}, {7, 5}}, {{2, 2}, {2, 3}},
		} {
			if reqs, _, err := m.BoxRequests(b[0], b[1]); err == nil {
				t.Errorf("%v: box %v accepted: %v", kind, b, reqs)
			}
		}
	}
}

// BenchmarkBoxRequests plans the paper's query shapes on its 259³ grid:
// each curve's hierarchy walk, and Naive's slab arithmetic, beside its
// reference.
func BenchmarkBoxRequests(b *testing.B) {
	v, err := lvm.New(16, disk.AtlasTenKIII())
	if err != nil {
		b.Fatal(err)
	}
	dims := []int{259, 259, 259}
	type shape struct {
		name string
		side [3]int
	}
	shapes := []shape{
		{"beam0", [3]int{259, 1, 1}}, {"beam1", [3]int{1, 259, 1}},
		{"4^3", [3]int{4, 4, 4}}, {"16^3", [3]int{16, 16, 16}},
		{"32^3", [3]int{32, 32, 32}}, {"128^3", [3]int{128, 128, 128}},
	}
	for _, kind := range refKinds {
		b.Run(kind.String(), func(b *testing.B) {
			m, ref := planPair(b, v, kind, dims, 0)
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
						ref.boxRequests(b, los[i%16], his[i%16])
					}
				})
			}
		})
	}
}

package sfc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The ranking Ranked replaced, kept as the oracle: one curve key per
// cell of the grid, sorted; a cell's rank is its key's position in that
// list. It knows nothing of hierarchies or runs — only Curve.Key.

// nextCell advances cell through the grid in row-major order (first
// dimension fastest) and reports whether there was a next cell.
func nextCell(cell, dims []int) bool {
	for i := 0; i < len(dims); i++ {
		cell[i]++
		if cell[i] < dims[i] {
			return true
		}
		cell[i] = 0
	}
	return false
}

// refSortedKeys returns the keys of every cell of [lo,hi), ascending.
func refSortedKeys(t testing.TB, c Curve, lo, hi []int) []uint64 {
	t.Helper()
	var keys []uint64
	cell := slices.Clone(lo)
	for {
		k, err := c.Key(cell)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		i := 0
		for ; i < len(cell); i++ {
			if cell[i]++; cell[i] < hi[i] {
				break
			}
			cell[i] = lo[i]
		}
		if i == len(cell) {
			break
		}
	}
	slices.Sort(keys)
	return keys
}

// refShapes are the grids the differential tests share with
// internal/mapping's: elongated, square non-power-of-two, 2-D, a
// dimension of width 1 bit beside wider ones, 4-D, the degenerate
// single cell, and a power of two.
var refShapes = [][]int{
	{11, 5, 4}, {19, 19, 19}, {9, 33}, {33, 2, 5}, {5, 3, 7, 4}, {1, 1}, {16, 16, 16},
}

// TestRunsMatchSortedKeys: the runs are exactly the sorted key list —
// Rank is a key's position in it, the runs are maximal, and a cell of
// the key space outside the grid has no rank.
func TestRunsMatchSortedKeys(t *testing.T) {
	for _, dims := range refShapes {
		for name, c := range curvesFor(t, dims) {
			t.Run(fmt.Sprint(name, dims), func(t *testing.T) {
				keys := refSortedKeys(t, c, make([]int, len(dims)), dims)
				r := NewRanked(c)
				if r.Len() != int64(len(keys)) {
					t.Fatalf("Len %d, want %d", r.Len(), len(keys))
				}
				cell := make([]int, len(dims))
				for {
					k, _ := c.Key(cell)
					want, _ := slices.BinarySearch(keys, k)
					got, err := r.Rank(cell)
					if err != nil || got != int64(want) {
						t.Fatalf("Rank(%v) = %d, %v; key %d is at %d in the sorted list", cell, got, err, k, want)
					}
					if !nextCell(cell, dims) {
						break
					}
				}
				wantRuns := 1
				for i := 1; i < len(keys); i++ {
					if keys[i] != keys[i-1]+1 {
						wantRuns++
					}
				}
				if got := len(r.runs) - 1; got != wantRuns {
					t.Errorf("%d runs, the sorted keys have %d maximal ones", got, wantRuns)
				}
				// Every cell of the key space off the grid is rejected.
				for _, cell := range enumerate(curveSpace(c)) {
					k, err := c.Key(cell)
					if err != nil {
						t.Fatal(err)
					}
					if _, in := slices.BinarySearch(keys, k); in {
						continue
					}
					if rk, err := r.Rank(cell); err == nil {
						t.Fatalf("Rank(%v) = %d for a cell outside the grid", cell, rk)
					}
				}
			})
		}
	}
}

// randomBox draws a non-empty box inside dims.
func randomBox(rng *rand.Rand, dims []int) (lo, hi []int) {
	lo, hi = make([]int, len(dims)), make([]int, len(dims))
	for i, d := range dims {
		lo[i] = rng.Intn(d)
		hi[i] = lo[i] + 1 + rng.Intn(d-lo[i])
	}
	return lo, hi
}

// TestWalkMatchesSortedKeys: the walk's intervals are the box's sorted
// keys cut wherever two neighbours are not consecutive.
func TestWalkMatchesSortedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range refShapes {
		for name, c := range curvesFor(t, dims) {
			for trial := 0; trial < 40; trial++ {
				lo, hi := randomBox(rng, dims)
				keys := refSortedKeys(t, c, lo, hi)
				var want, got [][2]uint64
				for i := 0; i < len(keys); {
					j := i + 1
					for j < len(keys) && keys[j] == keys[j-1]+1 {
						j++
					}
					want = append(want, [2]uint64{keys[i], uint64(j - i)})
					i = j
				}
				c.tree().walk(lo, hi, func(key0, n uint64) { got = append(got, [2]uint64{key0, n}) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s %v box [%v,%v):\n walk   %v\n sorted %v", name, dims, lo, hi, got, want)
				}
			}
		}
	}
}

// TestWalkWidestDimension: a single dimension may take all 63 key bits,
// where the upper half of the key space ends at 1<<63.
func TestWalkWidestDimension(t *testing.T) {
	const n = 1<<62 + 1
	z, err := NewZOrder([]int{n})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrayCurve([]int{n})
	if err != nil {
		t.Fatal(err)
	}
	// Gray sends the one cell of the upper half to the last key.
	for _, tc := range []struct {
		c    Curve
		runs int
	}{{z, 1}, {g, 2}} {
		r := NewRanked(tc.c)
		if r.Len() != n || len(r.runs)-1 != tc.runs {
			t.Fatalf("Len %d in %d runs, want %d in %d", r.Len(), len(r.runs)-1, n, tc.runs)
		}
		if rk, err := r.Rank([]int{n - 1}); err != nil || rk != n-1 {
			t.Errorf("Rank of the last cell = %d, %v", rk, err)
		}
	}
	var got [][2]int64
	err = NewRanked(z).BoxRuns([]int{n - 3}, []int{n}, func(rank0, cnt int64) { got = append(got, [2]int64{rank0, cnt}) })
	if err != nil || !slices.Equal(got, [][2]int64{{n - 3, 3}}) {
		t.Errorf("BoxRuns over the last three cells = %v, %v", got, err)
	}
}

func TestBoxRunsValidation(t *testing.T) {
	c, err := NewHilbert([]int{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRanked(c)
	for _, b := range [][2][]int{
		{{0}, {1}}, {{0, 0}, {1}}, {{-1, 0}, {1, 1}}, {{0, 0}, {6, 6}}, {{2, 2}, {2, 3}}, {{3, 0}, {2, 1}},
	} {
		if err := r.BoxRuns(b[0], b[1], func(int64, int64) { t.Errorf("box %v emitted", b) }); err == nil {
			t.Errorf("box %v accepted", b)
		}
	}
}

// BenchmarkNewRanked sets the walk beside the oracle's construction at
// the paper's grid: a key per cell and a sort.
func BenchmarkNewRanked(b *testing.B) {
	dims := []int{259, 259, 259}
	for _, name := range []string{"zorder", "hilbert", "gray"} {
		c := curvesFor(b, dims)[name]
		b.Run(name+"/walk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if r := NewRanked(c); r.Len() != 259*259*259 {
					b.Fatal(r.Len())
				}
			}
		})
		b.Run(name+"/ref", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if keys := refSortedKeys(b, c, make([]int, 3), dims); len(keys) != 259*259*259 {
					b.Fatal(len(keys))
				}
			}
		})
	}
}

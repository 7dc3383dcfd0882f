package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// enumerate returns every cell of a small grid in row-major order.
func enumerate(dims []int) [][]int {
	var out [][]int
	cell := make([]int, len(dims))
	for {
		out = append(out, append([]int(nil), cell...))
		if !nextCell(cell, dims) {
			break
		}
	}
	return out
}

// curveSpace returns the shape of a curve's whole key space: every
// side rounded up to the power of two the curve gives its axis. Key
// maps the cells of this box one to one onto [0, 2^keyBits).
func curveSpace(c Curve) []int {
	dims := c.Dims()
	space := make([]int, len(dims))
	for i := range dims {
		switch c := c.(type) {
		case *Hilbert:
			space[i] = 1 << uint(c.order)
		case *ZOrder:
			space[i] = 1 << uint(c.bw[i])
		case *GrayCurve:
			space[i] = 1 << uint(c.z.bw[i])
		}
	}
	return space
}

// binaryToGray returns the reflected Gray code of v, which grayToBinary
// decodes.
func binaryToGray(v uint64) uint64 { return v ^ (v >> 1) }

func curvesFor(t testing.TB, dims []int) map[string]Curve {
	t.Helper()
	z, err := NewZOrder(dims)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHilbert(dims)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGrayCurve(dims)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Curve{"zorder": z, "hilbert": h, "gray": g}
}

// TestCurveBijectiveExhaustive: Key maps every cell of a curve's key
// space (the grid's sides rounded up to powers of two, which holds the
// grid) to a distinct key in [0, 2^keyBits), so it is a bijection of
// that space and injective on the grid.
func TestCurveBijectiveExhaustive(t *testing.T) {
	shapes := [][]int{
		{8, 8},
		{4, 4, 4},
		{5, 3},       // paper's 2-D example shape
		{5, 3, 3},    // paper's 3-D example shape
		{5, 3, 3, 2}, // paper's 4-D example shape
		{7, 2, 9},
		{16},
		{2, 2, 2, 2, 2},
	}
	for _, dims := range shapes {
		for name, c := range curvesFor(t, dims) {
			space := curveSpace(c)
			bits := c.tree().keyBits
			seen := map[uint64][]int{}
			for _, cell := range enumerate(space) {
				k, err := c.Key(cell)
				if err != nil {
					t.Fatalf("%s %v: Key(%v): %v", name, dims, cell, err)
				}
				if k >= 1<<uint(bits) {
					t.Fatalf("%s %v: Key(%v) = %d outside the %d-bit curve", name, dims, cell, k, bits)
				}
				if prev, dup := seen[k]; dup {
					t.Fatalf("%s %v: key %d for both %v and %v", name, dims, k, prev, cell)
				}
				seen[k] = cell
			}
			if len(seen) != 1<<uint(bits) {
				t.Fatalf("%s %v: %d keys over a %v key space, want 2^%d", name, dims, len(seen), space, bits)
			}
		}
	}
}

func TestCurveValidation(t *testing.T) {
	for _, mk := range []func([]int) (Curve, error){
		func(d []int) (Curve, error) { return NewZOrder(d) },
		func(d []int) (Curve, error) { return NewHilbert(d) },
		func(d []int) (Curve, error) { return NewGrayCurve(d) },
	} {
		if _, err := mk(nil); err == nil {
			t.Error("empty dims accepted")
		}
		if _, err := mk([]int{4, 0}); err == nil {
			t.Error("zero dim accepted")
		}
		if _, err := mk([]int{1 << 30, 1 << 30, 1 << 30}); err == nil {
			t.Error("key overflow accepted")
		}
		c, err := mk([]int{8, 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Key([]int{1}); err == nil {
			t.Error("wrong arity accepted")
		}
		if _, err := c.Key([]int{-1, 0}); err == nil {
			t.Error("negative coordinate accepted")
		}
	}
}

// TestLookupsDoNotAllocate pins the per-cell paths under CellVLBN,
// fetch and insert: scratch lives on the stack.
func TestLookupsDoNotAllocate(t *testing.T) {
	dims := []int{19, 19, 19}
	cell := []int{7, 18, 3}
	for name, c := range curvesFor(t, dims) {
		r := NewRanked(c)
		for op, f := range map[string]func(){
			"Key":  func() { _, _ = c.Key(cell) },
			"Rank": func() { _, _ = r.Rank(cell) },
		} {
			if a := testing.AllocsPerRun(100, f); a != 0 {
				t.Errorf("%s %s: %v allocs per call, want 0", name, op, a)
			}
		}
	}
}

// TestHilbertUnitSteps: consecutive Hilbert keys map to cells at
// Manhattan distance exactly 1 — the curve's defining continuity
// property, and the reason it clusters better than Z-order. On a
// power-of-two grid Key is a bijection onto [0, n), so the table it
// builds lists the cell of every key.
func TestHilbertUnitSteps(t *testing.T) {
	for _, dims := range [][]int{{16, 16}, {8, 8, 8}, {4, 4, 4, 4}} {
		h, err := NewHilbert(dims)
		if err != nil {
			t.Fatal(err)
		}
		cells := enumerate(dims)
		byKey := make([][]int, len(cells))
		for _, cell := range cells {
			k, err := h.Key(cell)
			if err != nil {
				t.Fatal(err)
			}
			if k >= uint64(len(byKey)) || byKey[k] != nil {
				t.Fatalf("%v: Key(%v) = %d, outside the grid's %d keys or taken", dims, cell, k, len(byKey))
			}
			byKey[k] = cell
		}
		for k := 1; k < len(byKey); k++ {
			prev, cur := byKey[k-1], byKey[k]
			dist := 0
			for i := range cur {
				d := cur[i] - prev[i]
				if d < 0 {
					d = -d
				}
				dist += d
			}
			if dist != 1 {
				t.Fatalf("%v: Hilbert step %d -> %d moves distance %d (%v -> %v)",
					dims, k-1, k, dist, prev, cur)
			}
		}
	}
}

// TestGrayAdjacentKeysDifferOneBit: consecutive Gray-curve ranks
// correspond to Z-keys differing in exactly one bit.
func TestGrayAdjacentKeysDifferOneBit(t *testing.T) {
	for v := uint64(0); v < 4096; v++ {
		a, b := binaryToGray(v), binaryToGray(v+1)
		x := a ^ b
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("gray(%d)=%b and gray(%d)=%b differ in more than one bit", v, a, v+1, b)
		}
	}
}

func TestGrayRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool { return grayToBinary(binaryToGray(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZOrderKeyBitsCompact(t *testing.T) {
	// Unequal dims must not waste key space: (1024,4) needs 12 bits,
	// not 20.
	z, err := NewZOrder([]int{1024, 4})
	if err != nil {
		t.Fatal(err)
	}
	if z.hier.keyBits != 12 {
		t.Errorf("keyBits=%d, want 12", z.hier.keyBits)
	}
	k, err := z.Key([]int{1023, 3})
	if err != nil {
		t.Fatal(err)
	}
	if k != 1<<12-1 {
		t.Errorf("max cell key %d, want %d", k, 1<<12-1)
	}
}

func TestRankedDenseOnPow2(t *testing.T) {
	for name, c := range curvesFor(t, []int{8, 8, 8}) {
		r := NewRanked(c)
		if len(r.runs) != 2 {
			t.Errorf("%s: pow-2 grid is %d runs, want one (and the sentinel)", name, len(r.runs)-1)
		}
		if r.Len() != 512 {
			t.Errorf("%s: Len=%d, want 512", name, r.Len())
		}
	}
}

// TestRankedBijective: Rank numbers the grid's cells densely — each a
// distinct rank in [0, Len), with Len the cell count.
func TestRankedBijective(t *testing.T) {
	dims := []int{5, 3, 3}
	for name, c := range curvesFor(t, dims) {
		r := NewRanked(c)
		if r.Len() != 45 {
			t.Fatalf("%s: Len=%d, want 45", name, r.Len())
		}
		seen := make([]bool, r.Len())
		for _, cell := range enumerate(dims) {
			rk, err := r.Rank(cell)
			if err != nil {
				t.Fatalf("%s: Rank(%v): %v", name, cell, err)
			}
			if rk < 0 || rk >= r.Len() {
				t.Fatalf("%s: rank %d out of range", name, rk)
			}
			if seen[rk] {
				t.Fatalf("%s: rank %d assigned twice", name, rk)
			}
			seen[rk] = true
		}
	}
}

func TestRankedPreservesCurveOrder(t *testing.T) {
	// Rank must be monotone in curve key: compaction renumbers but
	// never reorders.
	dims := []int{6, 5, 4}
	for name, c := range curvesFor(t, dims) {
		r := NewRanked(c)
		type pair struct {
			key  uint64
			rank int64
		}
		var pairs []pair
		for _, cell := range enumerate(dims) {
			k, _ := c.Key(cell)
			rk, _ := r.Rank(cell)
			pairs = append(pairs, pair{k, rk})
		}
		for i := range pairs {
			for j := range pairs {
				if (pairs[i].key < pairs[j].key) != (pairs[i].rank < pairs[j].rank) {
					t.Fatalf("%s: rank order disagrees with key order", name)
				}
			}
		}
	}
}

func TestNumCells(t *testing.T) {
	if n, err := NumCells([]int{259, 259, 259}); n != 259*259*259 || err != nil {
		t.Errorf("NumCells = %d, %v", n, err)
	}
	if n, err := NumCells([]int{1 << 31, 1<<32 - 1}); n != (1<<31)*(1<<32-1) || err != nil {
		t.Errorf("NumCells at 2^63 - 2^31 = %d, %v", n, err)
	}
	// Counts that wrap int64 (to 0, to a negative) and shapes with no
	// cells are errors, not counts.
	for _, dims := range [][]int{{1 << 32, 1 << 32}, {1 << 21, 1 << 21, 1 << 21}, {1 << 62, 3}, {}, {4, 0}, {-2, -3}} {
		if n, err := NumCells(dims); err == nil {
			t.Errorf("NumCells(%v) = %d, want an error", dims, n)
		}
	}
}

// TestHilbertClustersBetterThanZ reproduces the clustering-property
// claim the paper cites (Moon et al.): the average number of contiguous
// curve runs for random 2-D range queries is lower for Hilbert.
func TestHilbertClustersBetterThanZ(t *testing.T) {
	dims := []int{32, 32}
	z, _ := NewZOrder(dims)
	h, _ := NewHilbert(dims)
	rng := rand.New(rand.NewSource(8))
	runs := func(c Curve) float64 {
		total := 0
		const trials = 60
		for trial := 0; trial < trials; trial++ {
			w := 4 + rng.Intn(8)
			x0 := rng.Intn(dims[0] - w)
			y0 := rng.Intn(dims[1] - w)
			var keys []uint64
			for x := x0; x < x0+w; x++ {
				for y := y0; y < y0+w; y++ {
					k, _ := c.Key([]int{x, y})
					keys = append(keys, k)
				}
			}
			// Count contiguous runs of consecutive keys.
			m := map[uint64]bool{}
			for _, k := range keys {
				m[k] = true
			}
			for _, k := range keys {
				if !m[k-1] {
					total++
				}
			}
		}
		return float64(total) / trials
	}
	zRuns, hRuns := runs(z), runs(h)
	if hRuns >= zRuns {
		t.Errorf("Hilbert runs/query %.1f not better than Z-order %.1f", hRuns, zRuns)
	}
}

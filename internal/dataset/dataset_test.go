package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := NewGrid(4, 0); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := NewGrid(4, 5, 6); err != nil {
		t.Fatal(err)
	}
}

func TestChunksTileGrid(t *testing.T) {
	g, _ := NewGrid(10, 7)
	chunks, err := g.Chunks([]int{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	// 3 x 3 chunks; total cells must equal the grid.
	if len(chunks) != 9 {
		t.Fatalf("got %d chunks, want 9", len(chunks))
	}
	var cells int64
	seen := map[[2]int]bool{}
	for _, c := range chunks {
		n := int64(1)
		for i := range c.Dims {
			if c.Dims[i] < 1 || c.Dims[i] > []int{4, 3}[i] {
				t.Fatalf("chunk dims out of bounds: %+v", c)
			}
			n *= int64(c.Dims[i])
		}
		cells += n
		key := [2]int{c.Lo[0], c.Lo[1]}
		if seen[key] {
			t.Fatalf("duplicate chunk at %v", key)
		}
		seen[key] = true
	}
	if cells != 10*7 {
		t.Fatalf("chunks cover %d cells, grid has %d", cells, 10*7)
	}
}

func TestChunksPaperShape(t *testing.T) {
	// §5.3: 1024^3 partitioned into at most 259^3 chunks -> 4^3 chunks,
	// the corner ones truncated to 247.
	g, _ := NewGrid(1024, 1024, 1024)
	chunks, err := g.Chunks([]int{259, 259, 259})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 64 {
		t.Fatalf("got %d chunks, want 64", len(chunks))
	}
	first := chunks[0]
	if first.Dims[0] != 259 {
		t.Errorf("interior chunk side %d, want 259", first.Dims[0])
	}
	last := chunks[63]
	if last.Dims[0] != 1024-3*259 {
		t.Errorf("edge chunk side %d, want %d", last.Dims[0], 1024-3*259)
	}
}

func TestChunksValidation(t *testing.T) {
	g, _ := NewGrid(10, 7)
	if _, err := g.Chunks([]int{4}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := g.Chunks([]int{4, 0}); err == nil {
		t.Error("zero chunk side accepted")
	}
}

func TestSynthetic3D(t *testing.T) {
	g, chunk, err := Synthetic3D(1)
	if err != nil {
		t.Fatal(err)
	}
	if g.dims[0] != 1024 || chunk != 259 {
		t.Errorf("full scale: dims=%v chunk=%d", g.dims, chunk)
	}
	g, chunk, err = Synthetic3D(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if g.dims[0] != 256 || chunk != 64 {
		t.Errorf("quarter scale: dims=%v chunk=%d", g.dims, chunk)
	}
	if _, _, err := Synthetic3D(0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, _, err := Synthetic3D(1.5); err == nil {
		t.Error("scale >1 accepted")
	}
}

func TestRandomBeamInRange(t *testing.T) {
	g, _ := NewGrid(20, 30, 40)
	rng := rand.New(rand.NewSource(3))
	for dim := 0; dim < 3; dim++ {
		for i := 0; i < 50; i++ {
			fixed, err := g.RandomBeam(rng, dim)
			if err != nil {
				t.Fatal(err)
			}
			for j, x := range fixed {
				if j == dim {
					continue
				}
				if x < 0 || x >= g.dims[j] {
					t.Fatalf("fixed[%d]=%d out of range", j, x)
				}
			}
		}
	}
	if _, err := g.RandomBeam(rng, 3); err == nil {
		t.Error("bad dim accepted")
	}
}

func TestRandomRangeSelectivity(t *testing.T) {
	g, _ := NewGrid(100, 100, 100)
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sel := []float64{0.0001, 0.001, 0.01, 0.05, 0.2, 0.5, 1}[int(uint64(seed)%7)]
		lo, hi, err := g.RandomRange(r, sel)
		if err != nil {
			return false
		}
		vol := int64(1)
		for i := range lo {
			if lo[i] < 0 || hi[i] > 100 || lo[i] >= hi[i] {
				return false
			}
			if hi[i]-lo[i] != hi[0]-lo[0] {
				return false // equal-length cube required
			}
			vol *= int64(hi[i] - lo[i])
		}
		// Achieved selectivity within a factor accounting for rounding.
		got := float64(vol) / 1e6
		return got > sel/3 && got < sel*3+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, _, err := g.RandomRange(rng, 0); err == nil {
		t.Error("zero selectivity accepted")
	}
	if _, _, err := g.RandomRange(rng, 1.1); err == nil {
		t.Error("selectivity >1 accepted")
	}
}

func TestRandomRangeFullSelectivity(t *testing.T) {
	g, _ := NewGrid(17, 9)
	rng := rand.New(rand.NewSource(1))
	lo, hi, err := g.RandomRange(rng, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0 || hi[0] != 17 || lo[1] != 0 || hi[1] != 9 {
		t.Errorf("100%% selectivity should cover the grid: [%v,%v)", lo, hi)
	}
}

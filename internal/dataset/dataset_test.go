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

package core

import "testing"

func TestNewCubeSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		k      []int
		t, d   int
		tracks int
		ok     bool
	}{
		{"paper 3d example", []int{5, 3, 3}, 5, 9, 9, true},
		{"paper 4d example", []int{5, 3, 3, 2}, 5, 9, 18, true},
		{"1d rejected", []int{5}, 5, 9, 9, false},
		{"eq1: K0 > T", []int{6, 3, 3}, 5, 9, 9, false},
		{"eq3: inner product > D", []int{5, 4, 3, 2}, 5, 9, 100, false},
		{"eq2: tracks exceed zone", []int{5, 3, 4}, 5, 9, 11, false},
		{"zero side", []int{5, 0, 3}, 5, 9, 9, false},
		{"2d minimal", []int{4, 7}, 4, 1, 7, true},
	}
	for _, tc := range cases {
		_, err := NewCubeSpec(tc.k, tc.t, tc.d, tc.tracks)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestCubeSpecDerived(t *testing.T) {
	s, err := NewCubeSpec([]int{5, 3, 3, 2}, 12, 9, 18)
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 4 {
		t.Errorf("N=%d", s.N())
	}
	if s.Tracks() != 18 {
		t.Errorf("Tracks=%d, want 18", s.Tracks())
	}
	// Strides per §4.2: Dim1 jumps 1, Dim2 jumps K1, Dim3 jumps K1*K2.
	for i, want := range []int{0, 1, 3, 9} {
		if i == 0 {
			continue
		}
		if got := s.strides[i]; got != want {
			t.Errorf("stride %d = %d, want %d", i, got, want)
		}
	}
}

func TestMaxDims(t *testing.T) {
	// Eq. 5: Nmax = 2 + log2(D).
	cases := map[int]int{1: 2, 2: 3, 4: 4, 128: 9, 256: 10, 1024: 12}
	for d, want := range cases {
		if got := MaxDims(d); got != want {
			t.Errorf("MaxDims(%d)=%d, want %d", d, got, want)
		}
	}
	// Paper: D on the order of hundreds allows more than 10 dimensions.
	if MaxDims(512) <= 10 {
		t.Error("hundreds of adjacent blocks should support >10 dims")
	}
}

func TestChooseBasicCubeSatisfiesEquations(t *testing.T) {
	cases := []struct {
		dims   []int
		t, d   int
		tracks int
	}{
		{[]int{259, 259, 259}, 453, 128, 10000},
		{[]int{591, 75, 25, 25}, 686, 128, 9000},
		{[]int{1024, 4}, 600, 128, 5000},
		{[]int{5, 3, 3}, 40, 16, 200},
		{[]int{100, 100, 100, 100, 100}, 500, 128, 8000},
	}
	for _, tc := range cases {
		s, err := ChooseBasicCube(tc.dims, tc.t, tc.d, tc.tracks)
		if err != nil {
			t.Fatalf("ChooseBasicCube(%v): %v", tc.dims, err)
		}
		if s.K[0] > tc.t {
			t.Errorf("%v: Eq.1 violated: K0=%d > T=%d", tc.dims, s.K[0], tc.t)
		}
		inner := 1
		for i := 1; i < s.N()-1; i++ {
			inner *= s.K[i]
		}
		if inner > tc.d {
			t.Errorf("%v: Eq.3 violated: inner=%d > D=%d", tc.dims, inner, tc.d)
		}
		if s.Tracks() > tc.tracks {
			t.Errorf("%v: Eq.2 violated: %d tracks > %d", tc.dims, s.Tracks(), tc.tracks)
		}
		for i := range s.K {
			if s.K[i] > tc.dims[i] {
				t.Errorf("%v: K[%d]=%d exceeds dataset length %d", tc.dims, i, s.K[i], tc.dims[i])
			}
		}
	}
}

func TestChooseBasicCubePrefersFullDims(t *testing.T) {
	// When the dataset fits within the constraints, the cube should
	// cover it exactly (one cube, maximal locality).
	s, err := ChooseBasicCube([]int{5, 3, 3}, 40, 16, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{5, 3, 3} {
		if s.K[i] != want {
			t.Errorf("K[%d]=%d, want %d", i, s.K[i], want)
		}
	}
}

func TestChooseBasicCube3DPaperScale(t *testing.T) {
	// The paper's synthetic experiment: 259-cell chunks, D=128. The
	// middle dimension must take the whole D budget.
	s, err := ChooseBasicCube([]int{259, 259, 259}, 453, 128, 44000)
	if err != nil {
		t.Fatal(err)
	}
	// K0: with S0=259 < T=453, a single 259-cell cube would strand
	// 43% of every track. Splitting Dim0 into 3 cubes of 87 packs 5
	// slots per 453-sector track (96% utilization) at the cost of two
	// same-track slot hops per beam, which gap bridging makes free.
	if s.K[0] != 87 {
		t.Errorf("K0=%d, want 87 (5 slots on a 453 track)", s.K[0])
	}
	if util := float64((453/s.K[0])*s.K[0]) / 453; util < 0.9 {
		t.Errorf("K0=%d packs only %.0f%% of a track", s.K[0], util*100)
	}
	// D=128 forces ceil(259/128) = 3 cubes along Dim1; balancing then
	// shrinks K1 to ceil(259/3) = 87 so the 3 cubes tile with 2 cells
	// of edge waste instead of 125.
	if s.K[1] != 87 {
		t.Errorf("K1=%d, want balanced 87 under D=128", s.K[1])
	}
	if ceil := (259 + s.K[1] - 1) / s.K[1]; ceil != 3 {
		t.Errorf("K1=%d needs %d cubes, want 3 (same as K1=128)", s.K[1], ceil)
	}
	if s.K[2] > 259 || s.K[2] < 1 {
		t.Errorf("K2=%d out of range", s.K[2])
	}
}

func TestChooseBasicCubeErrors(t *testing.T) {
	if _, err := ChooseBasicCube([]int{10}, 40, 16, 100); err == nil {
		t.Error("1-D accepted")
	}
	if _, err := ChooseBasicCube([]int{10, -1}, 40, 16, 100); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := ChooseBasicCube([]int{10, 10}, 0, 16, 100); err == nil {
		t.Error("zero track length accepted")
	}
	if _, err := ChooseBasicCube([]int{10, 10, 10}, 40, 16, 0); err == nil {
		t.Error("zero-track zone accepted")
	}
}

package mapping

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/sfc"
)

func testVolume(t *testing.T) *lvm.Volume {
	t.Helper()
	v, err := lvm.New(16, disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range []Kind{Naive, ZOrder, Hilbert, Gray, MultiMap} {
		s := k.String()
		if s == "" || s[0] == 'K' {
			t.Errorf("kind %d has bad name %q", int(k), s)
		}
	}
	for in, want := range map[string]Kind{
		"naive": Naive, "zorder": ZOrder, "z-order": ZOrder, "z": ZOrder,
		"hilbert": Hilbert, "gray": Gray, "multimap": MultiMap, "mm": MultiMap,
	} {
		got, err := ParseKind(in)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q)=%v,%v", in, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	if len(Kinds()) != 4 {
		t.Error("the paper compares exactly four mappings")
	}
}

func TestEveryMapperBijective(t *testing.T) {
	dims := []int{11, 5, 4}
	n := sfc.NumCells(dims)
	for _, k := range []Kind{Naive, ZOrder, Hilbert, Gray, MultiMap} {
		v := testVolume(t)
		m, err := New(k, v, dims, Options{DiskIdx: 0})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if m.Kind() != k {
			t.Errorf("%v: Kind()=%v", k, m.Kind())
		}
		seen := map[int64]bool{}
		cell := make([]int, len(dims))
		count := int64(0)
		for {
			vlbn, err := m.CellVLBN(cell)
			if err != nil {
				t.Fatalf("%v: CellVLBN(%v): %v", k, cell, err)
			}
			if seen[vlbn] {
				t.Fatalf("%v: duplicate VLBN %d", k, vlbn)
			}
			seen[vlbn] = true
			count++
			i := 0
			for i < len(dims) {
				cell[i]++
				if cell[i] < dims[i] {
					break
				}
				cell[i] = 0
				i++
			}
			if i == len(dims) {
				break
			}
		}
		if count != n {
			t.Fatalf("%v: enumerated %d cells, want %d", k, count, n)
		}
	}
}

func TestLinearMappersDense(t *testing.T) {
	// Naive and the curve mappings fill exactly [base, base+N) with no
	// holes — the fill-factor-1 packing of §5.2.
	dims := []int{7, 6, 3}
	n := sfc.NumCells(dims)
	for _, k := range []Kind{Naive, ZOrder, Hilbert, Gray} {
		v := testVolume(t)
		m, err := New(k, v, dims, Options{DiskIdx: 0, BaseVLBN: 100})
		if err != nil {
			t.Fatal(err)
		}
		min, max := int64(1<<62), int64(-1)
		cell := make([]int, len(dims))
		for i := int64(0); i < n; i++ {
			vlbn, err := m.CellVLBN(cell)
			if err != nil {
				t.Fatal(err)
			}
			if vlbn < min {
				min = vlbn
			}
			if vlbn > max {
				max = vlbn
			}
			advance(cell, dims)
		}
		base := v.DiskStart(0) + 100
		if min != base || max != base+n-1 {
			t.Errorf("%v: extent [%d,%d], want [%d,%d]", k, min, max, base, base+n-1)
		}
	}
}

func advance(cell, dims []int) {
	for i := 0; i < len(dims); i++ {
		cell[i]++
		if cell[i] < dims[i] {
			return
		}
		cell[i] = 0
	}
}

func TestNaiveRowMajor(t *testing.T) {
	v := testVolume(t)
	m, err := New(Naive, v, []int{4, 3, 2}, Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Dim0 fastest: cell (x,y,z) at x + 4y + 12z.
	for _, tc := range []struct {
		cell []int
		off  int64
	}{
		{[]int{0, 0, 0}, 0},
		{[]int{3, 0, 0}, 3},
		{[]int{0, 1, 0}, 4},
		{[]int{0, 0, 1}, 12},
		{[]int{3, 2, 1}, 23},
	} {
		got, err := m.CellVLBN(tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		if got != v.DiskStart(0)+tc.off {
			t.Errorf("cell %v at %d, want offset %d", tc.cell, got, tc.off)
		}
	}
}

// TestNaiveDim0Run: a run along the major order plans to one request,
// and so does a box of whole rows.
func TestNaiveDim0Run(t *testing.T) {
	v := testVolume(t)
	m, err := New(Naive, v, []int{10, 3}, Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := m.BoxRequests([]int{2, 1}, []int{7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Count != 5 || reqs[0].VLBN != v.DiskStart(0)+12 {
		t.Fatalf("got %v, want one 5-block run at offset 12", reqs)
	}
	if reqs, err := m.BoxRequests([]int{0, 1}, []int{10, 3}); err != nil || len(reqs) != 1 || reqs[0].Count != 20 {
		t.Fatalf("two whole rows: got %v, %v; want one 20-block run", reqs, err)
	}
	if _, err := m.BoxRequests([]int{8, 0}, []int{13, 1}); err == nil {
		t.Error("overlong run accepted")
	}
	if _, err := m.BoxRequests([]int{0, 0}, []int{0, 1}); err == nil {
		t.Error("zero run accepted")
	}
}

func TestCurveMapperCellAt(t *testing.T) {
	v := testVolume(t)
	m, err := New(Hilbert, v, []int{6, 5}, Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	cm := m.(*curveMapper)
	out := make([]int, 2)
	for _, cell := range [][]int{{0, 0}, {5, 4}, {3, 2}} {
		vlbn, err := m.CellVLBN(cell)
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.CellAt(vlbn, out); err != nil {
			t.Fatal(err)
		}
		if out[0] != cell[0] || out[1] != cell[1] {
			t.Errorf("CellAt(%d)=%v, want %v", vlbn, out, cell)
		}
	}
	if err := cm.CellAt(-1, out); err == nil {
		t.Error("VLBN before extent accepted")
	}
}

func TestExtentValidation(t *testing.T) {
	v := testVolume(t)
	if _, err := New(Naive, v, []int{10, 10}, Options{DiskIdx: 5}); err == nil {
		t.Error("bad disk index accepted")
	}
	if _, err := New(Naive, v, []int{10, 10}, Options{DiskIdx: 0, BaseVLBN: -1}); err == nil {
		t.Error("negative base accepted")
	}
	huge := []int{100000, 100}
	if _, err := New(Naive, v, huge, Options{DiskIdx: 0}); err == nil {
		t.Error("oversized extent accepted")
	}
	if _, err := New(Naive, v, nil, Options{}); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := New(Naive, v, []int{0, 5}, Options{}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := New(Kind(99), v, []int{4, 4}, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMultiMapperInterfaces(t *testing.T) {
	v := testVolume(t)
	m, err := New(MultiMap, v, []int{10, 4, 3}, Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(SemiSequential); !ok {
		t.Error("MultiMap must advertise semi-sequential access")
	}
	mm := m.(*multiMapper)
	if mm.Core() == nil {
		t.Error("Core() returned nil")
	}
	// Linear mappings must not advertise semi-sequential access.
	for _, k := range []Kind{Naive, ZOrder, Hilbert, Gray} {
		lm, err := New(k, v, []int{10, 4}, Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := lm.(SemiSequential); ok {
			t.Errorf("%v wrongly advertises semi-sequential access", k)
		}
	}
}

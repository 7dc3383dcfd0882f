package core

import (
	"fmt"
	"testing"

	"repro/internal/lvm"
)

// gridLocator is a trivial row-major locator for store tests.
func gridLocator(dims []int) CellLocator {
	return func(cell []int) (int64, error) {
		if len(cell) != len(dims) {
			return 0, fmt.Errorf("arity")
		}
		var lbn int64
		stride := int64(1)
		for i := range cell {
			if cell[i] < 0 || cell[i] >= dims[i] {
				return 0, fmt.Errorf("range")
			}
			lbn += int64(cell[i]) * stride
			stride *= int64(dims[i])
		}
		return lbn, nil
	}
}

func newTestStore(t *testing.T, capacity int, fill, reclaim float64) *CellStore {
	t.Helper()
	s, err := NewCellStore(gridLocator([]int{4, 4}), capacity, fill, reclaim,
		[]lvm.Request{{VLBN: 1000, Count: 100}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewCellStoreValidation(t *testing.T) {
	loc := gridLocator([]int{2, 2})
	cases := []struct {
		capacity       int
		fill, reclaim  float64
		overflowBlocks int
	}{
		{0, 1, 0, 10},
		{4, 0, 0, 10},
		{4, 1.5, 0, 10},
		{4, 1, 1, 10},
		{4, 1, -0.1, 10},
		{4, 1, 0, -1},
	}
	for _, tc := range cases {
		if _, err := NewCellStore(loc, tc.capacity, tc.fill, tc.reclaim,
			[]lvm.Request{{VLBN: 1000, Count: tc.overflowBlocks}}); err == nil {
			t.Errorf("invalid config %+v accepted", tc)
		}
	}
}

func TestLoadCellHonoursFillFactor(t *testing.T) {
	s := newTestStore(t, 10, 0.5, 0)
	// 12 points at fill 0.5 => 5 per block => 3 blocks.
	if _, err := s.LoadCell([]int{1, 1}, 12); err != nil {
		t.Fatal(err)
	}
	n, err := s.Points([]int{1, 1})
	if err != nil || n != 12 {
		t.Fatalf("Points=%d err=%v, want 12", n, err)
	}
	cl, _ := chainLen(s, []int{1, 1})
	if cl != 3 {
		t.Fatalf("chain length %d, want 3", cl)
	}
}

// TestLoadCellNeverOverfillsBlocks: repeated loads (and loads after
// inserts) must honour the per-block fill budget instead of stacking
// points past a block's physical capacity.
func TestLoadCellNeverOverfillsBlocks(t *testing.T) {
	s := newTestStore(t, 10, 1, 0)
	cell := []int{2, 2}
	if _, err := s.LoadCell(cell, 10); err != nil { // fills the home block
		t.Fatal(err)
	}
	if _, err := s.LoadCell(cell, 10); err != nil { // must spill, not overfill
		t.Fatal(err)
	}
	if n, _ := s.Points(cell); n != 20 {
		t.Fatalf("Points=%d, want 20", n)
	}
	if cl, _ := chainLen(s, cell); cl != 2 {
		t.Fatalf("chain length %d, want 2 (second load must overflow)", cl)
	}
	// With fill < 1, a second load tops the home block up to the budget
	// before growing the chain.
	s = newTestStore(t, 10, 0.5, 0)
	if _, err := s.LoadCell(cell, 3); err != nil { // 3 of 5 budget
		t.Fatal(err)
	}
	if _, err := s.LoadCell(cell, 4); err != nil { // 2 top up home, 2 spill
		t.Fatal(err)
	}
	if n, _ := s.Points(cell); n != 7 {
		t.Fatalf("Points=%d, want 7", n)
	}
	if cl, _ := chainLen(s, cell); cl != 2 {
		t.Fatalf("chain length %d, want 2", cl)
	}
	// A home block filled past the budget by inserts contributes no
	// headroom — the load goes straight to fresh pages.
	s = newTestStore(t, 4, 0.5, 0)
	for i := 0; i < 4; i++ { // inserts fill home to capacity 4 > budget 2
		if _, err := s.Insert(cell); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.LoadCell(cell, 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Points(cell); n != 6 {
		t.Fatalf("Points=%d, want 6", n)
	}
	if cl, _ := chainLen(s, cell); cl != 2 {
		t.Fatalf("chain length %d, want 2 (over-budget home must not absorb the load)", cl)
	}
}

func TestInsertUsesHeadroomThenOverflows(t *testing.T) {
	s := newTestStore(t, 10, 0.5, 0)
	if _, err := s.LoadCell([]int{0, 0}, 5); err != nil { // home at fill budget
		t.Fatal(err)
	}
	// 5 inserts fit in the home block's headroom.
	for i := 0; i < 5; i++ {
		if _, err := s.Insert([]int{0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if cl, _ := chainLen(s, []int{0, 0}); cl != 1 {
		t.Fatalf("headroom inserts created overflow (chain %d)", cl)
	}
	// The next insert must allocate an overflow page.
	if _, err := s.Insert([]int{0, 0}); err != nil {
		t.Fatal(err)
	}
	if cl, _ := chainLen(s, []int{0, 0}); cl != 2 {
		t.Fatalf("chain length %d, want 2 after overflow", cl)
	}
	if n, _ := s.Points([]int{0, 0}); n != 11 {
		t.Fatalf("Points=%d, want 11", n)
	}
}

func TestReadRequestsIncludeOverflowPages(t *testing.T) {
	s := newTestStore(t, 2, 1, 0)
	if _, err := s.LoadCell([]int{2, 3}, 5); err != nil {
		t.Fatal(err)
	}
	reqs, err := s.ReadRequests([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("got %d requests, want 3 (home + 2 overflow)", len(reqs))
	}
	home, _ := gridLocator([]int{4, 4})([]int{2, 3})
	if reqs[0].VLBN != home {
		t.Fatalf("first request %d, want home %d", reqs[0].VLBN, home)
	}
	for _, r := range reqs[1:] {
		if r.VLBN < 1000 || r.VLBN >= 1100 {
			t.Fatalf("overflow page %d outside the overflow extent", r.VLBN)
		}
	}
}

func TestOverflowExhaustion(t *testing.T) {
	s, err := NewCellStore(gridLocator([]int{2, 2}), 1, 1, 0, []lvm.Request{{VLBN: 1000, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Insert([]int{0, 0}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if _, err := s.Insert([]int{0, 0}); err == nil {
		t.Fatal("insert past overflow extent accepted")
	}
}

// TestOverflowRoundRobinAcrossExtents: with one overflow extent per
// disk, successive overflow pages must alternate extents rather than
// filling the first one, and exhausted extents are skipped until every
// extent is full.
func TestOverflowRoundRobinAcrossExtents(t *testing.T) {
	extents := []lvm.Request{{VLBN: 1000, Count: 2}, {VLBN: 5000, Count: 3}}
	s, err := NewCellStore(gridLocator([]int{2, 2}), 1, 1, 0, extents)
	if err != nil {
		t.Fatal(err)
	}
	cell := []int{0, 0}
	// Home holds 1 point; the next 5 inserts each allocate one page.
	for i := 0; i < 6; i++ {
		if _, err := s.Insert(cell); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	reqs, err := s.ReadRequests(cell)
	if err != nil {
		t.Fatal(err)
	}
	var pages []int64
	for _, r := range reqs[1:] {
		pages = append(pages, r.VLBN)
	}
	// Round-robin: 1000, 5000, 1001, 5001, then extent 0 is exhausted
	// and the last page falls through to extent 1.
	want := []int64{1000, 5000, 1001, 5001, 5002}
	if len(pages) != len(want) {
		t.Fatalf("allocated %d pages, want %d", len(pages), len(want))
	}
	for i := range want {
		if pages[i] != want[i] {
			t.Fatalf("page %d at %d, want %d (pages %v)", i, pages[i], want[i], pages)
		}
	}
	// Both extents full: the next overflow allocation fails.
	if _, err := s.Insert(cell); err == nil {
		t.Fatal("insert past every overflow extent accepted")
	}
}

func TestDeleteAndReorganize(t *testing.T) {
	s := newTestStore(t, 4, 1, 0.4)
	if _, err := s.LoadCell([]int{3, 3}, 12); err != nil { // 3 full blocks
		t.Fatal(err)
	}
	// Delete down to 4 points: occupancy 4/12 = 0.33 < 0.4 triggers
	// reorganization, compacting to a single block.
	for i := 0; i < 8; i++ {
		if _, err := s.Delete([]int{3, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Reorganizations() == 0 {
		t.Fatal("no reorganization despite underflow")
	}
	if cl, _ := chainLen(s, []int{3, 3}); cl != 1 {
		t.Fatalf("chain not compacted: %d blocks", cl)
	}
	if n, _ := s.Points([]int{3, 3}); n != 4 {
		t.Fatalf("Points=%d, want 4", n)
	}
}

func TestDeleteEmptyCell(t *testing.T) {
	s := newTestStore(t, 4, 1, 0)
	if _, err := s.Delete([]int{0, 1}); err == nil {
		t.Fatal("delete from empty cell accepted")
	}
}

func TestStorePreservesPointTotals(t *testing.T) {
	s := newTestStore(t, 3, 1, 0.3)
	want := 0
	for i := 0; i < 50; i++ {
		cell := []int{i % 4, (i / 4) % 4}
		if _, err := s.Insert(cell); err != nil {
			t.Fatal(err)
		}
		want++
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Delete([]int{0, 0}); err == nil {
			want--
		} else {
			break
		}
	}
	got := 0
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			n, err := s.Points([]int{x, y})
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	if got != want {
		t.Fatalf("total points %d, want %d", got, want)
	}
}

func TestStoreWithMultiMapLocator(t *testing.T) {
	// End-to-end: the store runs over a real MultiMap mapping.
	v := testVolume(t)
	m := mustMapping(t, v, []int{10, 4, 3}, MapOptions{DiskIdx: 0})
	// Overflow extent after the mapped region.
	s, err := NewCellStore(m.CellVLBN, 8, 0.75, 0.2,
		[]lvm.Request{{VLBN: v.TotalBlocks() - 500, Count: 500}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Insert([]int{i % 10, i % 4, i % 3}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.Points([]int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no points landed in cell (0,0,0)")
	}
}

// chainLen counts the blocks of a cell's chain (1 = no overflow).
func chainLen(s *CellStore, cell []int) (int, error) {
	reqs, err := s.ReadRequests(cell)
	return len(reqs), err
}

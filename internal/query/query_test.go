package query

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
)

func testVolume(t *testing.T) *lvm.Volume {
	t.Helper()
	v, err := lvm.New(16, disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// plan materializes the whole plan of a box — the non-streaming view
// the planner tests inspect.
func (e *Executor) plan(lo, hi []int) ([]lvm.Request, disk.SchedPolicy, int64, error) {
	p, err := e.Plan(lo, hi)
	if err != nil {
		return nil, 0, 0, err
	}
	var reqs []lvm.Request
	var policy disk.SchedPolicy
	var padding int64
	for {
		c, ok, err := p.Next()
		if err != nil {
			return nil, 0, 0, err
		}
		if !ok {
			return reqs, policy, padding, nil
		}
		reqs = append(reqs, c.Reqs...)
		policy = c.Policy
		padding += c.Padding
	}
}

func allMappers(t *testing.T, v *lvm.Volume, dims []int) map[string]mapping.Mapper {
	t.Helper()
	out := map[string]mapping.Mapper{}
	for _, k := range []mapping.Kind{mapping.Naive, mapping.ZOrder, mapping.Hilbert, mapping.Gray, mapping.MultiMap} {
		m, err := mapping.New(k, v, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		out[k.String()] = m
	}
	return out
}

// TestPolicyFor: the issue policy is the layout's own (§5.2) — SPTF
// for MultiMap's semi-sequential requests, FIFO for every linear
// layout, Gray included — and no caller can force another: the one
// policy-name argument left (ExecOptionsFor's) refuses any name.
func TestPolicyFor(t *testing.T) {
	for _, k := range append(mapping.Kinds(), mapping.Gray) {
		want := disk.SchedFIFO
		if k == mapping.MultiMap {
			want = disk.SchedSPTF
		}
		if got := PolicyFor(k); got != want {
			t.Errorf("PolicyFor(%v) = %v, want %v", k, got, want)
		}
	}
	if _, err := ExecOptionsFor("", 16); err != nil {
		t.Errorf("ExecOptionsFor without a policy: %v", err)
	}
	for _, name := range []string{"fifo", "sptf"} {
		if _, err := ExecOptionsFor(name, 0); err == nil {
			t.Errorf("ExecOptionsFor(%q) accepted a policy", name)
		}
	}
}

// TestQueriesFetchExactCellSets: for every mapping, a beam or range
// query must fetch exactly the blocks storing the requested cells — no
// more, no fewer. This is the cross-mapping result-equality invariant.
func TestQueriesFetchExactCellSets(t *testing.T) {
	dims := []int{12, 6, 5}
	for name, m := range allMappers(t, testVolume(t), dims) {
		v := testVolume(t) // fresh volume per mapper so head state is clean
		m2, err := mapping.New(m.Kind(), v, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(v, m2)
		lo, hi := []int{2, 1, 0}, []int{9, 5, 3}
		reqs, _, padding, err := e.plan(lo, hi)
		if err != nil {
			t.Fatalf("%s: plan: %v", name, err)
		}
		got := map[int64]int{}
		for _, r := range reqs {
			for i := 0; i < r.Count; i++ {
				got[r.VLBN+int64(i)]++
			}
		}
		want := map[int64]bool{}
		cell := append([]int(nil), lo...)
		for {
			vlbn, err := m2.CellVLBN(cell)
			if err != nil {
				t.Fatal(err)
			}
			want[vlbn] = true
			if !nextInBox(cell, lo, hi) {
				break
			}
		}
		// Every wanted block exactly once; any extra blocks must be
		// declared as bridged padding.
		if int64(len(got)) != int64(len(want))+padding {
			t.Fatalf("%s: plan covers %d blocks, want %d + %d padding",
				name, len(got), len(want), padding)
		}
		for vlbn := range want {
			if got[vlbn] != 1 {
				t.Fatalf("%s: block %d fetched %d times", name, vlbn, got[vlbn])
			}
		}
		for vlbn, n := range got {
			if n != 1 {
				t.Fatalf("%s: block %d fetched %d times", name, vlbn, n)
			}
		}
	}
}

func TestRangeStatsConsistent(t *testing.T) {
	dims := []int{12, 6, 5}
	v := testVolume(t)
	m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	st, err := e.Range([]int{0, 0, 0}, []int{12, 6, 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 12*6*5 {
		t.Errorf("Cells=%d, want %d", st.Cells, 12*6*5)
	}
	if st.Requests <= 0 || st.TotalMs <= 0 || st.ElapsedMs <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if sum := st.CommandMs + st.SeekMs + st.RotateMs + st.TransferMs; math.Abs(sum-st.TotalMs) > 1e-6 {
		t.Errorf("component sum %.4f != total %.4f", sum, st.TotalMs)
	}
	if mpc := st.MsPerCell(); mpc <= 0 || mpc != st.TotalMs/float64(st.Cells) {
		t.Errorf("MsPerCell wrong: %v", mpc)
	}
	if (Stats{}).MsPerCell() != 0 {
		t.Error("MsPerCell of empty stats should be 0")
	}
}

func TestRangeValidation(t *testing.T) {
	v := testVolume(t)
	m, err := mapping.New(mapping.Naive, v, []int{10, 5}, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	if _, err := e.Range([]int{0}, []int{5}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := e.Range([]int{0, 0}, []int{11, 5}); err == nil {
		t.Error("hi beyond dims accepted")
	}
	if _, err := e.Range([]int{3, 0}, []int{3, 5}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := e.Beam(2, []int{0, 0}); err == nil {
		t.Error("beam dim out of range accepted")
	}
	if _, err := e.Beam(0, []int{0}); err == nil {
		t.Error("beam fixed arity accepted")
	}
}

// TestBeamEquivalentToThinRange: Beam(dim, fixed) is exactly the
// [lo,hi) box with width 1 everywhere except dim.
func TestBeamEquivalentToThinRange(t *testing.T) {
	dims := []int{10, 6, 4}
	v := testVolume(t)
	m, err := mapping.New(mapping.Naive, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	stBeam, err := e.Beam(1, []int{3, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if stBeam.Cells != int64(dims[1]) {
		t.Fatalf("beam fetched %d cells, want %d", stBeam.Cells, dims[1])
	}
}

// TestNaiveDim0BeamSingleRequest: the major-order beam coalesces to one
// sequential request.
func TestNaiveDim0BeamSingleRequest(t *testing.T) {
	dims := []int{20, 4, 3}
	v := testVolume(t)
	m, err := mapping.New(mapping.Naive, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	reqs, policy, _, err := e.plan([]int{0, 2, 1}, []int{20, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Count != 20 {
		t.Fatalf("want one 20-block request, got %v", reqs)
	}
	if policy != disk.SchedFIFO {
		t.Errorf("naive should issue FIFO")
	}
}

// TestMultiMapBeamUsesSPTF: MultiMap issues non-Dim0 beams unsorted
// under the SPTF policy (§5.2).
func TestMultiMapBeamUsesSPTF(t *testing.T) {
	dims := []int{20, 6, 4}
	v := testVolume(t)
	m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	reqs, policy, _, err := e.plan([]int{3, 0, 2}, []int{4, 6, 3})
	if err != nil {
		t.Fatal(err)
	}
	if policy != disk.SchedSPTF {
		t.Errorf("MultiMap should rely on the disk scheduler (SPTF)")
	}
	if len(reqs) != 6 {
		t.Errorf("Dim1 beam should be %d single-block requests, got %d", 6, len(reqs))
	}
}

// TestMultiMapRangeFavoursSequential: a 2-D slab range produces Dim0
// runs, not per-cell requests (§5.2's "three sequential accesses").
func TestMultiMapRangeFavoursSequential(t *testing.T) {
	dims := []int{20, 6, 4}
	v := testVolume(t)
	m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	reqs, _, _, err := e.plan([]int{0, 0, 0}, []int{20, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// 2 rows of 20 cells: at most 2 requests per row (track wrap).
	if len(reqs) > 4 {
		t.Errorf("slab expanded to %d requests; sequential runs expected", len(reqs))
	}
	var cells int
	for _, r := range reqs {
		cells += r.Count
	}
	if cells != 40 {
		t.Errorf("requests cover %d cells, want 40", cells)
	}
}

// TestMultiMapBeamBeatsNaiveOffMajor: the headline behaviour on the
// small disk — MultiMap's Dim1 beam is much cheaper per cell than
// Naive's, while its Dim0 beam matches Naive's streaming.
func TestMultiMapBeamBeatsNaiveOffMajor(t *testing.T) {
	dims := []int{30, 12, 8}
	perCell := func(kind mapping.Kind, dim int) float64 {
		v := testVolume(t)
		m, err := mapping.New(kind, v, dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(v, m)
		st, err := e.Beam(dim, []int{3, 3, 3})
		if err != nil {
			t.Fatal(err)
		}
		return st.MsPerCell()
	}
	naive1 := perCell(mapping.Naive, 1)
	mm1 := perCell(mapping.MultiMap, 1)
	if mm1 >= naive1 {
		t.Errorf("Dim1 beam: MultiMap %.3f ms/cell not better than Naive %.3f", mm1, naive1)
	}
	// Dim0: MultiMap matches Naive's streaming up to the small penalty
	// of per-track rotation shifts and cube crossings — pronounced on
	// this toy disk (30-cell beams), negligible at paper scale where a
	// beam covers hundreds of cells per request.
	naive0 := perCell(mapping.Naive, 0)
	mm0 := perCell(mapping.MultiMap, 0)
	if mm0 > naive0*2.0 {
		t.Errorf("Dim0 beam: MultiMap %.3f ms/cell much worse than Naive %.3f", mm0, naive0)
	}
}

// fakeRunner returns canned Stats and a canned error from RunPlan,
// standing in for a Session whose context died mid-plan.
type fakeRunner struct {
	st  engine.Stats
	err error
}

func (f fakeRunner) RunPlan(context.Context, engine.Plan, engine.Options) (engine.Stats, error) {
	return f.st, f.err
}

// TestRangeOnPartialResults pins the speculative-partial contract: a
// context-death error with cells already aggregated comes back flagged
// Partial (alongside the error), while an empty cancelled run and a
// non-context failure stay unflagged.
func TestRangeOnPartialResults(t *testing.T) {
	dims := []int{12, 6, 5}
	v := testVolume(t)
	m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(v, m)
	lo, hi := []int{0, 0, 0}, []int{4, 4, 4}

	cases := []struct {
		name    string
		cells   int64
		err     error
		partial bool
	}{
		{"cancelled with cells", 30, context.Canceled, true},
		{"deadline with cells", 30, context.DeadlineExceeded, true},
		{"cancelled empty", 0, context.Canceled, false},
		{"non-context error", 30, errors.New("disk on fire"), false},
	}
	for _, tc := range cases {
		r := fakeRunner{st: engine.Stats{Cells: tc.cells}, err: tc.err}
		st, err := e.RangeOn(context.Background(), r, lo, hi)
		if !errors.Is(err, tc.err) {
			t.Fatalf("%s: error %v, want %v", tc.name, err, tc.err)
		}
		if st.Partial != tc.partial {
			t.Fatalf("%s: Partial=%v, want %v (stats %+v)", tc.name, st.Partial, tc.partial, st)
		}
	}

	// A clean run over the full box must not be flagged.
	st, err := e.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if st.Partial {
		t.Fatalf("complete query flagged Partial: %+v", st)
	}
}

// nextInBox advances cell within [lo,hi) in row-major order (dim 0
// fastest); reports false after the last cell.
func nextInBox(cell, lo, hi []int) bool {
	for i := 0; i < len(cell); i++ {
		cell[i]++
		if cell[i] < hi[i] {
			return true
		}
		cell[i] = lo[i]
	}
	return false
}

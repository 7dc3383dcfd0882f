package octree

import (
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
)

func quakeFixture(t *testing.T) (*lvm.Volume, *Tree) {
	t.Helper()
	v, err := lvm.New(32, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewQuakeTree(5)
	if err != nil {
		t.Fatal(err)
	}
	return v, tr
}

func allQuakeStores(t *testing.T) map[string]*Store {
	t.Helper()
	out := map[string]*Store{}
	for _, k := range mapping.Kinds() {
		v, tr := quakeFixture(t)
		s, err := NewStore(v, tr, k)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		out[k.String()] = s
	}
	return out
}

func TestQuakeStoreBijective(t *testing.T) {
	for name, s := range allQuakeStores(t) {
		seen := map[int64]bool{}
		for _, lf := range s.tree.Leaves(nil) {
			vlbn, err := s.LeafVLBN(lf)
			if err != nil {
				t.Fatalf("%s: LeafVLBN(%+v): %v", name, lf, err)
			}
			if seen[vlbn] {
				t.Fatalf("%s: block %d assigned twice", name, vlbn)
			}
			seen[vlbn] = true
		}
	}
}

func TestQuakeStoreUnknownLeaf(t *testing.T) {
	for name, s := range allQuakeStores(t) {
		if _, err := s.LeafVLBN(Leaf{Anchor: [3]int{1, 1, 1}, Depth: 5}); err == nil {
			// (1,1,1) at depth 5 exists only if region A covers it —
			// it does (z=1 < 8), so pick an impossible one instead.
			if _, err := s.LeafVLBN(Leaf{Anchor: [3]int{1, 1, 31}, Depth: 5}); err == nil {
				t.Errorf("%s: nonexistent leaf accepted", name)
			}
		}
	}
}

func TestQuakeMultiMapUsesRegions(t *testing.T) {
	v, tr := quakeFixture(t)
	s, err := NewStore(v, tr, mapping.MultiMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.regions) < 3 {
		t.Fatalf("only %d regions mapped", len(s.regions))
	}
	// Leaves inside the dense slab must resolve through a region
	// mapping; checkerboard leaves through the remainder extent.
	slabLeaf, err := tr.LeafAt(3, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ri := s.regionOf(slabLeaf); ri < 0 {
		t.Error("slab leaf not in any region")
	}
}

func TestBeamLeavesTileLine(t *testing.T) {
	_, tr := quakeFixture(t)
	v, _ := quakeFixture(t)
	s, err := NewStore(v, tr, mapping.Naive)
	if err != nil {
		t.Fatal(err)
	}
	for axis := 0; axis < 3; axis++ {
		leaves, err := s.BeamLeaves(axis, [3]int{5, 9, 17})
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, lf := range leaves {
			covered += lf.Side(tr.MaxDepth())
		}
		if covered != tr.DomainSide() {
			t.Fatalf("axis %d: beam covers %d units, want %d", axis, covered, tr.DomainSide())
		}
	}
	if _, err := s.BeamLeaves(3, [3]int{0, 0, 0}); err == nil {
		t.Error("bad axis accepted")
	}
}

func TestRangeLeavesMatchesBruteForce(t *testing.T) {
	v, tr := quakeFixture(t)
	s, err := NewStore(v, tr, mapping.Naive)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := [3]int{3, 7, 1}, [3]int{19, 15, 30}
	leaves, err := s.RangeLeaves(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Leaf]bool{}
	for x := lo[0]; x < hi[0]; x++ {
		for y := lo[1]; y < hi[1]; y++ {
			for z := lo[2]; z < hi[2]; z++ {
				lf, err := tr.LeafAt(x, y, z)
				if err != nil {
					t.Fatal(err)
				}
				want[lf] = true
			}
		}
	}
	if len(leaves) != len(want) {
		t.Fatalf("RangeLeaves found %d, brute force %d", len(leaves), len(want))
	}
	for _, lf := range leaves {
		if !want[lf] {
			t.Fatalf("leaf %+v not expected", lf)
		}
	}
	if _, err := s.RangeLeaves([3]int{0, 0, 0}, [3]int{0, 1, 1}); err == nil {
		t.Error("empty range accepted")
	}
}

func TestQuakePlanPoliciesAndExecution(t *testing.T) {
	for name, s := range allQuakeStores(t) {
		leaves, err := s.BeamLeaves(0, [3]int{0, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		_, policy, err := s.Plan(leaves)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		isMM := name == mapping.MultiMap.String()
		if isMM && policy != disk.SchedSPTF {
			t.Errorf("%s: want SPTF", name)
		}
		if !isMM && policy != disk.SchedFIFO {
			t.Errorf("%s: want FIFO", name)
		}
		st, err := s.Query(leaves)
		if err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		if st.Cells != int64(len(leaves)) {
			t.Errorf("%s: fetched %d blocks for %d leaves", name, st.Cells, len(leaves))
		}
	}
}

// TestQueryMatchesDirectServe is Fig. 7's value-level oracle: Store.Query
// runs on a lone session, and every query's Stats must equal (==) those
// of serving Store.Plan's batch through ServeBatch on a twin volume with
// the same head positions — beams along every axis and a range, query
// after query, so head state carries over as it does in the figure.
func TestQueryMatchesDirectServe(t *testing.T) {
	for _, kind := range []mapping.Kind{mapping.MultiMap, mapping.Naive} {
		v, tr := quakeFixture(t)
		twin, _ := quakeFixture(t)
		s, err := NewStore(v, tr, kind)
		if err != nil {
			t.Fatal(err)
		}
		rng, twinRng := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		var queries [][]Leaf
		for axis := 0; axis < 3; axis++ {
			for _, p := range [][3]int{{3, 3, 3}, {5, 9, 17}, {20, 28, 30}} {
				leaves, err := s.BeamLeaves(axis, p)
				if err != nil {
					t.Fatal(err)
				}
				queries = append(queries, leaves)
			}
		}
		box, err := s.RangeLeaves([3]int{2, 4, 1}, [3]int{14, 12, 20})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, box)
		for i, leaves := range queries {
			v.Disk(0).RandomizePosition(rng)
			twin.Disk(0).RandomizePosition(twinRng)
			got, err := s.Query(leaves)
			if err != nil {
				t.Fatal(err)
			}
			reqs, policy, err := s.Plan(leaves)
			if err != nil {
				t.Fatal(err)
			}
			comps, elapsed, err := twin.ServeBatch(reqs, policy)
			if err != nil {
				t.Fatal(err)
			}
			var want engine.Stats
			want.AddCompletions(comps, elapsed)
			if got != want {
				t.Fatalf("%v query %d: Store.Query %+v != direct serve %+v", kind, i, got, want)
			}
		}
	}
}

// TestQuakeMultiMapBeatsNaiveOffMajor mirrors Fig. 7(a)'s ordering on
// the scaled-down tree: MultiMap's Y/Z beams are much cheaper per cell
// than Naive's.
func TestQuakeMultiMapBeatsNaiveOffMajor(t *testing.T) {
	perCell := func(kind mapping.Kind, axis int) float64 {
		v, tr := quakeFixture(t)
		s, err := NewStore(v, tr, kind)
		if err != nil {
			t.Fatal(err)
		}
		leaves, err := s.BeamLeaves(axis, [3]int{3, 3, 3}) // through the dense slab
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Query(leaves)
		if err != nil {
			t.Fatal(err)
		}
		return st.MsPerCell()
	}
	for axis := 1; axis < 3; axis++ {
		n := perCell(mapping.Naive, axis)
		m := perCell(mapping.MultiMap, axis)
		if m >= n {
			t.Errorf("axis %d: MultiMap %.3f ms/cell not better than Naive %.3f", axis, m, n)
		}
	}
}

// TestQuakeFromPointsMatchesDepthFn: building the octree from the raw
// point cloud (capacity 1) reconstructs exactly the tree the depth
// function describes — the full §4.5 pipeline from data to regions.
func TestQuakeFromPointsMatchesDepthFn(t *testing.T) {
	const md = 5
	want, err := NewQuakeTree(md)
	if err != nil {
		t.Fatal(err)
	}
	pts := QuakePoints(md)
	got, err := BuildFromPoints(pts, 1, md)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumLeaves() != want.NumLeaves() {
		t.Fatalf("point-built tree has %d leaves, depth-fn tree %d",
			got.NumLeaves(), want.NumLeaves())
	}
	wantLeaves := map[Leaf]bool{}
	for _, lf := range want.Leaves(nil) {
		wantLeaves[lf] = true
	}
	for _, lf := range got.Leaves(nil) {
		if !wantLeaves[lf] {
			t.Fatalf("point-built leaf %+v not in depth-fn tree", lf)
		}
	}
	// And the region pipeline works on the point-built tree.
	regions, _ := GrowRegions(got.UniformSubtrees(), got.MaxDepth(), 64)
	if len(regions) < 3 {
		t.Fatalf("point-built tree yields %d regions", len(regions))
	}
	v, err := lvm.New(32, disk.MediumTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(v, got, mapping.MultiMap)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := s.BeamLeaves(0, [3]int{0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Query(leaves)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != int64(len(leaves)) {
		t.Fatalf("fetched %d blocks for %d leaves", st.Cells, len(leaves))
	}
}

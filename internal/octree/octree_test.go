package octree

import (
	"fmt"
	"math/rand"
	"testing"
)

// The point-set build: the octree of a raw point cloud, split wherever
// a node holds more than a leaf's capacity. The tree the package serves
// comes from BuildFromDepthFn; this build is the oracle that the depth
// function describes the tree a point cloud would give
// (TestQuakeFromPointsMatchesDepthFn).

// Point is a dataset point in finest-resolution coordinates.
type Point [3]int

// BuildFromPoints builds the octree by splitting any node holding more
// than leafCap points until maxDepth.
func BuildFromPoints(points []Point, leafCap, maxDepth int) (*Tree, error) {
	if leafCap < 1 {
		return nil, fmt.Errorf("octree: leaf capacity must be positive, got %d", leafCap)
	}
	if maxDepth < 1 || maxDepth > 20 {
		return nil, fmt.Errorf("octree: max depth %d out of [1,20]", maxDepth)
	}
	side := 1 << uint(maxDepth)
	for _, p := range points {
		for i := 0; i < 3; i++ {
			if p[i] < 0 || p[i] >= side {
				return nil, fmt.Errorf("octree: point %v outside domain [0,%d)^3", p, side)
			}
		}
	}
	t := &Tree{maxDepth: maxDepth}
	t.root = t.buildNode(points, 0, [3]int{0, 0, 0}, leafCap)
	t.leaves = countLeaves(t.root)
	return t, nil
}

func (t *Tree) buildNode(points []Point, depth int, anchor [3]int, leafCap int) *node {
	n := &node{depth: depth, anchor: anchor}
	if len(points) <= leafCap || depth == t.maxDepth {
		return n
	}
	half := 1 << uint(t.maxDepth-depth-1)
	var buckets [8][]Point
	for _, p := range points {
		idx := 0
		for i := 0; i < 3; i++ {
			if p[i] >= anchor[i]+half {
				idx |= 1 << uint(i)
			}
		}
		buckets[idx] = append(buckets[idx], p)
	}
	n.children = new([8]*node)
	for idx := 0; idx < 8; idx++ {
		ca := anchor
		for i := 0; i < 3; i++ {
			if idx&(1<<uint(i)) != 0 {
				ca[i] += half
			}
		}
		n.children[idx] = t.buildNode(buckets[idx], depth+1, ca, leafCap)
	}
	return n
}

func TestBuildFromPointsBasics(t *testing.T) {
	pts := []Point{{0, 0, 0}, {1, 1, 1}, {15, 15, 15}, {15, 0, 0}, {0, 15, 0}}
	tr, err := BuildFromPoints(pts, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() < 5 {
		t.Fatalf("too few leaves: %d", tr.NumLeaves())
	}
	if tr.DomainSide() != 16 {
		t.Fatalf("domain side %d, want 16", tr.DomainSide())
	}
	// Every point must land in a distinct leaf (capacity 1, all points
	// pairwise separable at depth 4).
	seen := map[Leaf]bool{}
	for _, p := range pts {
		lf, err := tr.LeafAt(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		if seen[lf] {
			t.Fatalf("two points share leaf %+v at capacity 1", lf)
		}
		seen[lf] = true
	}
}

func TestBuildFromPointsValidation(t *testing.T) {
	if _, err := BuildFromPoints(nil, 0, 4); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := BuildFromPoints(nil, 1, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := BuildFromPoints([]Point{{-1, 0, 0}}, 1, 4); err == nil {
		t.Error("out-of-domain point accepted")
	}
}

func TestLeavesTileDomain(t *testing.T) {
	tr, err := NewQuakeTree(5)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, lf := range tr.Leaves(nil) {
		s := int64(lf.Side(tr.MaxDepth()))
		total += s * s * s
	}
	l := int64(tr.DomainSide())
	if total != l*l*l {
		t.Fatalf("leaves cover %d units, domain has %d", total, l*l*l)
	}
}

func TestLeafAtMatchesLeafList(t *testing.T) {
	tr, err := NewQuakeTree(5)
	if err != nil {
		t.Fatal(err)
	}
	inList := map[Leaf]bool{}
	for _, lf := range tr.Leaves(nil) {
		inList[lf] = true
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		x, y, z := rng.Intn(32), rng.Intn(32), rng.Intn(32)
		lf, err := tr.LeafAt(x, y, z)
		if err != nil {
			t.Fatal(err)
		}
		if !inList[lf] {
			t.Fatalf("LeafAt(%d,%d,%d)=%+v not in leaf list", x, y, z, lf)
		}
		side := lf.Side(tr.MaxDepth())
		if x < lf.Anchor[0] || x >= lf.Anchor[0]+side {
			t.Fatalf("point outside returned leaf")
		}
	}
	if _, err := tr.LeafAt(-1, 0, 0); err == nil {
		t.Error("out-of-domain accepted")
	}
}

func TestQuakeTreeStructure(t *testing.T) {
	// The md=6 quake tree reproduces the paper's description: roughly
	// four uniform subareas, two holding well over 60% of elements.
	tr, err := NewQuakeTree(6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tr.NumLeaves(), int64(65536+8192+8192+512+36); got != want {
		t.Fatalf("NumLeaves=%d, want %d", got, want)
	}
	regions, rest := GrowRegions(tr.UniformSubtrees(), tr.MaxDepth(), 64)
	if len(regions) != 4 {
		t.Fatalf("got %d uniform regions, want 4: %+v", len(regions), regions)
	}
	rep := Coverage(tr, regions, rest)
	if frac := float64(rep.TopTwoLeaves) / float64(rep.TotalLeaves); frac < 0.6 {
		t.Errorf("top two regions cover %.0f%%, want > 60%%", 100*frac)
	}
	// Region A: the full-resolution slab (64,64,16).
	var foundA bool
	for _, r := range regions {
		d := r.GridDims()
		if d[0] == 64 && d[1] == 64 && d[2] == 16 && r.LeafDepth == 6 {
			foundA = true
		}
	}
	if !foundA {
		t.Errorf("densest slab region missing: %+v", regions)
	}
	if rep.RegionLeaves+rep.RestLeaves != rep.TotalLeaves {
		t.Errorf("region + rest leaves %d != total %d",
			rep.RegionLeaves+rep.RestLeaves, rep.TotalLeaves)
	}
}

// TestCoverageReportString pins the line examples/earthquake prints.
func TestCoverageReportString(t *testing.T) {
	rep := CoverageReport{TotalLeaves: 200, Regions: 4, RegionLeaves: 150, TopTwoLeaves: 130, RestSubtrees: 3, RestLeaves: 50}
	const want = "4 regions covering 150/200 leaves (top two: 65%), 3 remainder subtrees (50 leaves)"
	if got := rep.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestUniformSubtreesMaximal(t *testing.T) {
	tr, err := NewQuakeTree(5)
	if err != nil {
		t.Fatal(err)
	}
	subs := tr.UniformSubtrees()
	var total int64
	for _, s := range subs {
		if s.LeafDepth < s.Depth {
			t.Fatalf("subtree %+v has leaf depth above root depth", s)
		}
		total += s.Leaves
	}
	if total != tr.NumLeaves() {
		t.Fatalf("subtrees cover %d leaves, tree has %d", total, tr.NumLeaves())
	}
}

func TestGrowRegionsMergesSlab(t *testing.T) {
	// Two side-by-side subtrees of equal depth must merge into one box.
	subs := []Subtree{
		{Anchor: [3]int{0, 0, 0}, Depth: 1, LeafDepth: 3, Leaves: 64},
		{Anchor: [3]int{16, 0, 0}, Depth: 1, LeafDepth: 3, Leaves: 64},
	}
	regions, rest := GrowRegions(subs, 5, 1)
	if len(rest) != 0 {
		t.Fatalf("unexpected remainder: %+v", rest)
	}
	if len(regions) != 1 {
		t.Fatalf("got %d regions, want 1 merged: %+v", len(regions), regions)
	}
	d := regions[0].GridDims()
	if d[0] != 8 || d[1] != 4 || d[2] != 4 {
		t.Fatalf("merged dims %v, want [8 4 4]", d)
	}
}

func TestGrowRegionsKeepsDifferentDepthsApart(t *testing.T) {
	subs := []Subtree{
		{Anchor: [3]int{0, 0, 0}, Depth: 1, LeafDepth: 3, Leaves: 64},
		{Anchor: [3]int{16, 0, 0}, Depth: 1, LeafDepth: 4, Leaves: 512},
	}
	regions, _ := GrowRegions(subs, 5, 1)
	if len(regions) != 2 {
		t.Fatalf("different densities merged: %+v", regions)
	}
}

func TestGrowRegionsMinLeavesFilter(t *testing.T) {
	subs := []Subtree{
		{Anchor: [3]int{0, 0, 0}, Depth: 2, LeafDepth: 3, Leaves: 8},
	}
	regions, rest := GrowRegions(subs, 5, 64)
	if len(regions) != 0 || len(rest) != 1 {
		t.Fatalf("small region not demoted: regions=%v rest=%v", regions, rest)
	}
}

func TestRegionContainsLeaf(t *testing.T) {
	r := Region{LeafDepth: 3, Lo: [3]int{0, 0, 0}, Hi: [3]int{4, 4, 4}}
	if !r.ContainsLeaf(Leaf{Anchor: [3]int{4, 8, 12}, Depth: 3}, 5) {
		t.Error("leaf inside rejected")
	}
	if r.ContainsLeaf(Leaf{Anchor: [3]int{16, 0, 0}, Depth: 3}, 5) {
		t.Error("leaf outside accepted")
	}
	if r.ContainsLeaf(Leaf{Anchor: [3]int{0, 0, 0}, Depth: 2}, 5) {
		t.Error("wrong-depth leaf accepted")
	}
}

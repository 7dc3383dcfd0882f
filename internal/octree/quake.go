package octree

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
	"repro/internal/sfc"
)

// QuakeDepthFn reconstructs the refinement structure of the paper's
// earthquake ground-motion dataset (§5.4): a skewed octree with
// "roughly four uniform subareas", two of which hold well over 60% of
// all elements, plus a mixed-resolution remainder. The densest slab
// models the soft-soil layer near the surface of the 3-D velocity
// model. maxDepth must be at least 5.
func QuakeDepthFn(maxDepth int) DepthFn {
	l := 1 << uint(maxDepth)
	return func(x, y, z int) int {
		switch {
		case z < l/4: // region A: finest resolution, biggest uniform area
			return maxDepth
		case z < l/2: // region B
			return maxDepth - 1
		case y < l/2: // region C
			return maxDepth - 1
		case x < l/2: // region D
			return maxDepth - 2
		default: // region E: mixed checkerboard -> non-uniform remainder
			if ((x/16)+(y/16)+(z/16))%2 == 0 {
				return maxDepth - 4
			}
			return maxDepth - 3
		}
	}
}

// NewQuakeTree builds the synthetic earthquake octree at the given
// maximum depth (5..8 are sensible sizes; 6 gives ~82k elements).
func NewQuakeTree(maxDepth int) (*Tree, error) {
	if maxDepth < 5 {
		return nil, fmt.Errorf("octree: quake tree needs maxDepth >= 5, got %d", maxDepth)
	}
	return BuildFromDepthFn(QuakeDepthFn(maxDepth), maxDepth)
}

// minRegionLeaves is the smallest uniform region worth a MultiMap grid
// (§4.5); smaller ones revert to the linear remainder.
const minRegionLeaves = 64

// Store places an octree dataset on drive 0 of a volume under one of
// the four mappings and plans beam/range queries over it. For MultiMap
// it applies §4.5: each grown uniform region becomes its own grid
// mapping and the remainder reverts to the linear layout.
type Store struct {
	vol  *lvm.Volume
	kind mapping.Kind
	tree *Tree

	// MultiMap state
	regions  []Region
	mms      []*core.Mapping
	restBase int64
	restRank map[Leaf]int64

	// Linear-mapping state
	base  int64
	keys  []uint64
	keyOf func(Leaf) (uint64, error)
}

// NewStore lays the tree's leaves out on drive 0 under the given
// mapping kind.
func NewStore(vol *lvm.Volume, tree *Tree, kind mapping.Kind) (*Store, error) {
	s := &Store{vol: vol, kind: kind, tree: tree}
	if kind == mapping.MultiMap {
		return s, s.placeMultiMap()
	}
	return s, s.placeLinear()
}

// placeLinear orders all leaves by the mapping's curve (Naive: X-major
// lexicographic; Z-order/Hilbert/Gray: curve value of the leaf anchor,
// §5.4) and packs them into one contiguous extent.
func (s *Store) placeLinear() error {
	l := s.tree.DomainSide()
	switch s.kind {
	case mapping.Naive:
		s.keyOf = func(lf Leaf) (uint64, error) {
			return (uint64(lf.Anchor[2])*uint64(l)+uint64(lf.Anchor[1]))*uint64(l) + uint64(lf.Anchor[0]), nil
		}
	case mapping.ZOrder, mapping.Hilbert, mapping.Gray:
		var curve sfc.Curve
		var err error
		dims := []int{l, l, l}
		switch s.kind {
		case mapping.ZOrder:
			curve, err = sfc.NewZOrder(dims)
		case mapping.Hilbert:
			curve, err = sfc.NewHilbert(dims)
		default:
			curve, err = sfc.NewGrayCurve(dims)
		}
		if err != nil {
			return err
		}
		s.keyOf = func(lf Leaf) (uint64, error) {
			return curve.Key([]int{lf.Anchor[0], lf.Anchor[1], lf.Anchor[2]})
		}
	default:
		return fmt.Errorf("octree: unsupported linear kind %v", s.kind)
	}
	leaves := s.tree.Leaves(nil)
	s.keys = make([]uint64, 0, len(leaves))
	for _, lf := range leaves {
		k, err := s.keyOf(lf)
		if err != nil {
			return err
		}
		s.keys = append(s.keys, k)
	}
	slices.Sort(s.keys)
	for i := 1; i < len(s.keys); i++ {
		if s.keys[i] == s.keys[i-1] {
			return fmt.Errorf("octree: duplicate placement key %d", s.keys[i])
		}
	}
	s.base = s.vol.DiskStart(0)
	if int64(len(s.keys)) > s.vol.DiskBlocks(0) {
		return fmt.Errorf("octree: %d leaves exceed disk capacity", len(s.keys))
	}
	return nil
}

// placeMultiMap applies §4.5: detect maximal uniform subtrees, grow
// them into grid regions, map each region with MultiMap, and place the
// remainder in X-major order in a trailing extent.
func (s *Store) placeMultiMap() error {
	regions, rest := GrowRegions(s.tree.UniformSubtrees(), s.tree.MaxDepth(), minRegionLeaves)
	if len(regions) == 0 {
		return fmt.Errorf("octree: no uniform regions found; use a linear mapping")
	}
	s.regions = regions
	cur := int64(0)
	for _, r := range regions {
		mm, err := core.NewMapping(s.vol, r.GridDims(), core.MapOptions{StartVLBN: cur})
		if err != nil {
			return fmt.Errorf("octree: mapping region %+v: %w", r, err)
		}
		s.mms = append(s.mms, mm)
		cur = mm.NextFreeVLBN()
	}
	// Remainder: every leaf not covered by a region, X-major.
	s.restRank = make(map[Leaf]int64)
	_ = rest
	var rem []Leaf
	for _, lf := range s.tree.Leaves(nil) {
		if s.regionOf(lf) < 0 {
			rem = append(rem, lf)
		}
	}
	l := s.tree.DomainSide()
	slices.SortFunc(rem, func(a, b Leaf) int {
		ka := (a.Anchor[2]*l+a.Anchor[1])*l + a.Anchor[0]
		kb := (b.Anchor[2]*l+b.Anchor[1])*l + b.Anchor[0]
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		default:
			return 0
		}
	})
	s.restBase = cur
	if cur+int64(len(rem)) > s.vol.DiskStart(0)+s.vol.DiskBlocks(0) {
		return fmt.Errorf("octree: remainder extent does not fit")
	}
	for i, lf := range rem {
		s.restRank[lf] = int64(i)
	}
	return nil
}

// regionOf returns the index of the region containing the leaf, or -1.
func (s *Store) regionOf(lf Leaf) int {
	for i, r := range s.regions {
		if r.ContainsLeaf(lf, s.tree.MaxDepth()) {
			return i
		}
	}
	return -1
}

// LeafVLBN returns the block storing a leaf element.
func (s *Store) LeafVLBN(lf Leaf) (int64, error) {
	if s.kind == mapping.MultiMap {
		if ri := s.regionOf(lf); ri >= 0 {
			r := s.regions[ri]
			side := lf.Side(s.tree.MaxDepth())
			cell := []int{
				lf.Anchor[0]/side - r.Lo[0],
				lf.Anchor[1]/side - r.Lo[1],
				lf.Anchor[2]/side - r.Lo[2],
			}
			return s.mms[ri].CellVLBN(cell)
		}
		rank, ok := s.restRank[lf]
		if !ok {
			return 0, fmt.Errorf("octree: leaf %+v not in dataset", lf)
		}
		return s.restBase + rank, nil
	}
	k, err := s.keyOf(lf)
	if err != nil {
		return 0, err
	}
	i, ok := slices.BinarySearch(s.keys, k)
	if !ok {
		return 0, fmt.Errorf("octree: leaf %+v not in dataset", lf)
	}
	return s.base + int64(i), nil
}

// BeamLeaves returns the leaves crossed by an axis-parallel line
// through point p — the paper's beam query on the quake dataset.
func (s *Store) BeamLeaves(axis int, p [3]int) ([]Leaf, error) {
	if axis < 0 || axis > 2 {
		return nil, fmt.Errorf("octree: axis %d out of range", axis)
	}
	var out []Leaf
	c := p
	for t := 0; t < s.tree.DomainSide(); {
		c[axis] = t
		lf, err := s.tree.LeafAt(c[0], c[1], c[2])
		if err != nil {
			return nil, err
		}
		out = append(out, lf)
		// Skip to the end of this leaf along the axis.
		t = lf.Anchor[axis] + lf.Side(s.tree.MaxDepth())
	}
	return out, nil
}

// RangeLeaves returns the leaves intersecting the box [lo, hi).
func (s *Store) RangeLeaves(lo, hi [3]int) ([]Leaf, error) {
	for i := 0; i < 3; i++ {
		if lo[i] < 0 || hi[i] > s.tree.DomainSide() || lo[i] >= hi[i] {
			return nil, fmt.Errorf("octree: bad range on axis %d", i)
		}
	}
	var out []Leaf
	var walk func(n *node)
	walk = func(n *node) {
		side := 1 << uint(s.tree.maxDepth-n.depth)
		for i := 0; i < 3; i++ {
			if n.anchor[i] >= hi[i] || n.anchor[i]+side <= lo[i] {
				return
			}
		}
		if n.children == nil {
			out = append(out, Leaf{Anchor: n.anchor, Depth: n.depth})
			return
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(s.tree.root)
	return out, nil
}

// Plan turns a leaf set into I/O requests plus the layout's issue
// policy (query.PolicyFor): under SPTF (MultiMap) single-block requests
// for the disk scheduler (§5.2); under FIFO (the linear mappings)
// ascending coalesced runs.
func (s *Store) Plan(leaves []Leaf) ([]lvm.Request, disk.SchedPolicy, error) {
	lbns := make([]int64, 0, len(leaves))
	for _, lf := range leaves {
		vlbn, err := s.LeafVLBN(lf)
		if err != nil {
			return nil, 0, err
		}
		lbns = append(lbns, vlbn)
	}
	slices.Sort(lbns)
	reqs := make([]lvm.Request, len(lbns))
	for i, l := range lbns {
		reqs[i] = lvm.Request{VLBN: l, Count: 1}
	}
	policy := query.PolicyFor(s.kind)
	if policy == disk.SchedSPTF {
		// Sorted issue keeps scheduler windows track-local; the disk's
		// SPTF pass finds the semi-sequential path within them (§5.2).
		return reqs, policy, nil
	}
	// Ascending and disjoint, so SortCoalesce only merges the runs.
	return lvm.SortCoalesce(reqs), policy, nil
}

// Query plans a leaf set and services it as one chunk on a lone session
// of the store's volume, returning the simulated I/O statistics.
func (s *Store) Query(leaves []Leaf) (engine.Stats, error) {
	reqs, policy, err := s.Plan(leaves)
	if err != nil {
		return engine.Stats{}, err
	}
	return engine.OnVolume(s.vol).RunPlan(context.Background(), engine.Static(reqs, policy), engine.Options{})
}

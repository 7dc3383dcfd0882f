// Package octree implements the index structure behind the paper's
// earthquake dataset (§5.4): an octree whose leaf nodes are the stored
// elements, plus the §4.5 machinery for non-grid datasets — finding
// maximal uniform subtrees and growing them into grid-like regions that
// MultiMap can map.
package octree

import "fmt"

// Leaf is one stored element: an axis-aligned cube of the domain.
type Leaf struct {
	// Anchor is the leaf's minimum corner in finest-resolution units
	// (the domain is a cube of side 2^MaxDepth units).
	Anchor [3]int
	// Depth is the leaf's depth; its side is 2^(MaxDepth-Depth) units.
	Depth int
}

// Side returns the leaf's side length in finest units.
func (l Leaf) Side(maxDepth int) int { return 1 << uint(maxDepth-l.Depth) }

// Tree is an octree over a cubic domain of side 2^MaxDepth finest
// units. It is built from a refinement function (BuildFromDepthFn),
// which stands in for loading a pre-built index like the Quake
// project's etree; the tests also build one from a point set.
type Tree struct {
	maxDepth int
	root     *node
	leaves   int64
}

type node struct {
	depth    int
	anchor   [3]int
	children *[8]*node // nil for leaves
}

// MaxDepth returns the tree's maximum depth.
func (t *Tree) MaxDepth() int { return t.maxDepth }

// NumLeaves returns the number of leaf elements.
func (t *Tree) NumLeaves() int64 { return t.leaves }

// DomainSide returns the domain's side in finest units.
func (t *Tree) DomainSide() int { return 1 << uint(t.maxDepth) }

// DepthFn prescribes the leaf depth at a finest-unit coordinate.
// BuildFromDepthFn refines a node while its target depth anywhere
// inside exceeds the node's depth.
type DepthFn func(x, y, z int) int

// BuildFromDepthFn deterministically reconstructs an octree with the
// given refinement structure. fn must return depths in [0, maxDepth].
func BuildFromDepthFn(fn DepthFn, maxDepth int) (*Tree, error) {
	if maxDepth < 1 || maxDepth > 20 {
		return nil, fmt.Errorf("octree: max depth %d out of [1,20]", maxDepth)
	}
	t := &Tree{maxDepth: maxDepth}
	t.root = t.buildDepthNode(fn, 0, [3]int{0, 0, 0})
	t.leaves = countLeaves(t.root)
	return t, nil
}

func (t *Tree) buildDepthNode(fn DepthFn, depth int, anchor [3]int) *node {
	n := &node{depth: depth, anchor: anchor}
	if depth == t.maxDepth || !t.needsSplit(fn, depth, anchor) {
		return n
	}
	half := 1 << uint(t.maxDepth-depth-1)
	n.children = new([8]*node)
	for idx := 0; idx < 8; idx++ {
		ca := anchor
		for i := 0; i < 3; i++ {
			if idx&(1<<uint(i)) != 0 {
				ca[i] += half
			}
		}
		n.children[idx] = t.buildDepthNode(fn, depth+1, ca)
	}
	return n
}

// needsSplit samples the target depth across the node's extent. The
// depth functions we use are piecewise constant on power-of-two boxes,
// so sampling the 8 child anchors plus the center is exact.
func (t *Tree) needsSplit(fn DepthFn, depth int, anchor [3]int) bool {
	side := 1 << uint(t.maxDepth-depth)
	half := side / 2
	offs := []int{0, half}
	if half == 0 {
		offs = []int{0}
	}
	for _, dx := range offs {
		for _, dy := range offs {
			for _, dz := range offs {
				if fn(anchor[0]+dx, anchor[1]+dy, anchor[2]+dz) > depth {
					return true
				}
			}
		}
	}
	return false
}

func countLeaves(n *node) int64 {
	if n.children == nil {
		return 1
	}
	var c int64
	for _, ch := range n.children {
		c += countLeaves(ch)
	}
	return c
}

// Leaves appends every leaf to dst and returns it, in child order
// (Morton order of the hierarchy).
func (t *Tree) Leaves(dst []Leaf) []Leaf {
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			dst = append(dst, Leaf{Anchor: n.anchor, Depth: n.depth})
			return
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(t.root)
	return dst
}

// LeafAt returns the leaf containing the finest-unit coordinate.
func (t *Tree) LeafAt(x, y, z int) (Leaf, error) {
	side := t.DomainSide()
	if x < 0 || x >= side || y < 0 || y >= side || z < 0 || z >= side {
		return Leaf{}, fmt.Errorf("octree: coordinate (%d,%d,%d) outside domain", x, y, z)
	}
	n := t.root
	for n.children != nil {
		half := 1 << uint(t.maxDepth-n.depth-1)
		idx := 0
		if x >= n.anchor[0]+half {
			idx |= 1
		}
		if y >= n.anchor[1]+half {
			idx |= 2
		}
		if z >= n.anchor[2]+half {
			idx |= 4
		}
		n = n.children[idx]
	}
	return Leaf{Anchor: n.anchor, Depth: n.depth}, nil
}

// Subtree is a maximal internal node whose leaves all share one depth:
// a uniform grid of 8^(LeafDepth-Depth) elements (§4.5's "largest
// sub-trees on which all the leaf nodes are at the same level").
type Subtree struct {
	Anchor    [3]int
	Depth     int // subtree root depth
	LeafDepth int // common depth of all leaves underneath
	Leaves    int64
}

// UniformSubtrees returns the maximal uniform subtrees, in Morton
// order. A leaf node is itself a (degenerate) uniform subtree.
func (t *Tree) UniformSubtrees() []Subtree {
	var out []Subtree
	var walk func(n *node) (uniformDepth int, ok bool)
	walk = func(n *node) (int, bool) {
		if n.children == nil {
			return n.depth, true
		}
		depth := -1
		uniform := true
		type res struct {
			d  int
			ok bool
		}
		results := make([]res, 8)
		for i, ch := range n.children {
			d, ok := walk(ch)
			results[i] = res{d, ok}
			if !ok {
				uniform = false
			} else if depth == -1 {
				depth = d
			} else if d != depth {
				uniform = false
			}
		}
		if uniform {
			return depth, true
		}
		// This node is mixed: each uniform child subtree is maximal.
		for i, ch := range n.children {
			if results[i].ok {
				side := int64(1) << uint(3*(results[i].d-ch.depth))
				out = append(out, Subtree{
					Anchor: ch.anchor, Depth: ch.depth,
					LeafDepth: results[i].d, Leaves: side,
				})
			}
		}
		return 0, false
	}
	if d, ok := walk(t.root); ok {
		out = append(out, Subtree{
			Anchor: t.root.anchor, Depth: 0, LeafDepth: d,
			Leaves: int64(1) << uint(3*d),
		})
	}
	return out
}

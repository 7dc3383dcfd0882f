// Package shard spreads one logical dataset across several independent
// volumes, each with its own engine.Service loop goroutine, head state,
// and extent cache — the scale-out axis the per-volume query service
// was built to enable. A deterministic Router partitions the grid along
// Dim0 into slabs aligned to MultiMap's basic-cube boundaries, so every
// shard keeps the paper's sequential (Dim0) and semi-sequential
// (adjacency-chain) locality intact; a scatter-gather Session splits
// each query box by owning shard, runs the per-shard sub-plans through
// all shard services concurrently, and merges the per-shard Stats so
// the attribution-sum property still holds group-wide.
package shard

import (
	"fmt"
)

// Router is the deterministic Dim0 partition of a dataset grid over N
// shards: shard i owns the global Dim0 slab [Cuts[i], Cuts[i+1]), with
// every interior cut a multiple of the alignment quantum (MultiMap's
// basic-cube side K0), so no cube's sequential run straddles shards.
// Routing is pure address arithmetic — no shared state, safe for any
// number of goroutines.
type Router struct {
	dims []int
	cuts []int // len NumShards+1; cuts[0]=0, cuts[n]=dims[0]
}

// NewRouter partitions a grid of the given side lengths into shards
// slabs along Dim0, each cut aligned to a multiple of align (the
// basic-cube Dim0 side for MultiMap; 1 for mappings without a Dim0
// grain). The aligned slab quanta are distributed as evenly as
// possible; the partition fails when the grid has fewer quanta than
// shards, since an empty shard could never own a cell.
func NewRouter(dims []int, shards, align int) (*Router, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("shard: empty dimension list")
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("shard: dimension %d has non-positive length %d", i, d)
		}
	}
	if shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", shards)
	}
	if align < 1 {
		return nil, fmt.Errorf("shard: alignment %d must be positive", align)
	}
	quanta := (dims[0] + align - 1) / align
	if shards > quanta {
		return nil, fmt.Errorf(
			"shard: %d shards over Dim0 length %d at alignment %d leaves an empty shard (%d slab quanta)",
			shards, dims[0], align, quanta)
	}
	r := &Router{dims: append([]int(nil), dims...)}
	r.cuts = make([]int, shards+1)
	for i := 1; i < shards; i++ {
		r.cuts[i] = align * (i * quanta / shards)
	}
	r.cuts[shards] = dims[0]
	return r, nil
}

// NumShards returns the number of slabs.
func (r *Router) NumShards() int { return len(r.cuts) - 1 }

// Dims returns the global dataset side lengths.
func (r *Router) Dims() []int { return r.dims }

// Slab returns shard i's global Dim0 interval [lo, hi).
func (r *Router) Slab(i int) (lo, hi int) { return r.cuts[i], r.cuts[i+1] }

// LocalDims returns shard i's local grid shape: the global shape with
// Dim0 shrunk to the slab length.
func (r *Router) LocalDims(i int) []int {
	d := append([]int(nil), r.dims...)
	d[0] = r.cuts[i+1] - r.cuts[i]
	return d
}

// ShardOf returns the shard owning a global cell coordinate.
func (r *Router) ShardOf(cell []int) (int, error) {
	if len(cell) != len(r.dims) {
		return 0, fmt.Errorf("shard: cell has %d dims, want %d", len(cell), len(r.dims))
	}
	x := cell[0]
	if x < 0 || x >= r.dims[0] {
		return 0, fmt.Errorf("shard: Dim0 coordinate %d outside [0,%d)", x, r.dims[0])
	}
	// The cuts are few (one per shard): a linear scan beats binary
	// search at realistic shard counts.
	for i := 1; i < len(r.cuts); i++ {
		if x < r.cuts[i] {
			return i - 1, nil
		}
	}
	return 0, fmt.Errorf("shard: unroutable coordinate %d", x) // unreachable
}

// Localize converts a global cell to shard i's local coordinates.
func (r *Router) Localize(i int, cell []int) []int {
	local := append([]int(nil), cell...)
	local[0] -= r.cuts[i]
	return local
}

// Part is one shard's share of a query box, in that shard's local
// coordinates.
type Part struct {
	Shard  int
	Lo, Hi []int
}

// SplitBox partitions a global box [lo, hi) along the Dim0 cuts into
// per-shard sub-boxes in local coordinates, in shard order. Shards the
// box does not touch contribute no part; the parts' cell counts sum to
// the box's. Bounds are not validated here — each shard's planner
// rejects a bad sub-box exactly as the single-volume planner would.
func (r *Router) SplitBox(lo, hi []int) []Part {
	var parts []Part
	for i := 0; i < r.NumShards(); i++ {
		s, e := r.cuts[i], r.cuts[i+1]
		plo, phi := lo[0], hi[0]
		if plo < s {
			plo = s
		}
		if phi > e {
			phi = e
		}
		if plo >= phi {
			continue
		}
		l := append([]int(nil), lo...)
		h := append([]int(nil), hi...)
		l[0], h[0] = plo-s, phi-s
		parts = append(parts, Part{Shard: i, Lo: l, Hi: h})
	}
	return parts
}

// Package dataset provides the grid-dataset abstraction shared by the
// paper's three evaluation workloads (§5.1): grid shapes, per-disk
// chunking, deterministic synthetic generators, and the random beam and
// range queries drawn over them.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
)

// Grid is an N-dimensional dataset of single-block cells.
type Grid struct {
	dims []int
}

// NewGrid validates the shape and returns the grid.
func NewGrid(dims ...int) (*Grid, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dataset: empty dimension list")
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("dataset: dimension %d has non-positive length %d", i, d)
		}
	}
	return &Grid{dims: append([]int(nil), dims...)}, nil
}

// Chunk is an axis-aligned sub-grid produced by Chunks.
type Chunk struct {
	// Lo is the chunk's origin in the parent grid.
	Lo []int
	// Dims is the chunk's shape.
	Dims []int
}

// Chunks partitions the grid into chunks of at most maxSide cells per
// dimension, in row-major chunk order. This reproduces §5.3's
// partitioning of the 1024^3 dataset into 259^3 per-disk chunks.
func (g *Grid) Chunks(maxSide []int) ([]Chunk, error) {
	if len(maxSide) != len(g.dims) {
		return nil, fmt.Errorf("dataset: maxSide arity %d, want %d", len(maxSide), len(g.dims))
	}
	per := make([]int, len(g.dims))
	for i := range g.dims {
		if maxSide[i] <= 0 {
			return nil, fmt.Errorf("dataset: maxSide[%d] must be positive", i)
		}
		per[i] = (g.dims[i] + maxSide[i] - 1) / maxSide[i]
	}
	var out []Chunk
	idx := make([]int, len(g.dims))
	for {
		c := Chunk{Lo: make([]int, len(g.dims)), Dims: make([]int, len(g.dims))}
		for i := range g.dims {
			c.Lo[i] = idx[i] * maxSide[i]
			c.Dims[i] = maxSide[i]
			if c.Lo[i]+c.Dims[i] > g.dims[i] {
				c.Dims[i] = g.dims[i] - c.Lo[i]
			}
		}
		out = append(out, c)
		i := 0
		for i < len(idx) {
			idx[i]++
			if idx[i] < per[i] {
				break
			}
			idx[i] = 0
			i++
		}
		if i == len(idx) {
			return out, nil
		}
	}
}

// Synthetic3D returns the paper's synthetic uniform dataset (§5.3):
// 1024^3 cells chunked into at most 259^3 per disk. scale in (0,1]
// shrinks both proportionally for fast runs; scale 1 is paper size.
func Synthetic3D(scale float64) (grid *Grid, chunkSide int, err error) {
	if scale <= 0 || scale > 1 {
		return nil, 0, fmt.Errorf("dataset: scale %v outside (0,1]", scale)
	}
	side := int(1024 * scale)
	if side < 8 {
		side = 8
	}
	chunkSide = int(259 * scale)
	if chunkSide < 4 {
		chunkSide = 4
	}
	g, err := NewGrid(side, side, side)
	if err != nil {
		return nil, 0, err
	}
	return g, chunkSide, nil
}

// RandomBeam draws a beam query for the grid: the dimension dim varies
// over its full length, the others are fixed uniformly at random —
// §5.3's "each run selects a random value ... for the two fixed
// dimensions".
func (g *Grid) RandomBeam(rng *rand.Rand, dim int) ([]int, error) {
	if dim < 0 || dim >= len(g.dims) {
		return nil, fmt.Errorf("dataset: beam dimension %d out of range", dim)
	}
	fixed := make([]int, len(g.dims))
	for i := range g.dims {
		if i != dim {
			fixed[i] = rng.Intn(g.dims[i])
		}
	}
	return fixed, nil
}

// RandomRange draws an equal-side-length cube covering selectivity
// fraction sel of the grid, with a uniformly random corner — §5.1's
// range query. It returns the box as [lo, hi).
func (g *Grid) RandomRange(rng *rand.Rand, sel float64) (lo, hi []int, err error) {
	if sel <= 0 || sel > 1 {
		return nil, nil, fmt.Errorf("dataset: selectivity %v outside (0,1]", sel)
	}
	// Equal length per dimension: side_i = dims_i * sel^(1/N).
	frac := math.Pow(sel, 1.0/float64(len(g.dims)))
	lo = make([]int, len(g.dims))
	hi = make([]int, len(g.dims))
	for i, d := range g.dims {
		side := int(float64(d)*frac + 0.5)
		if side < 1 {
			side = 1
		}
		if side > d {
			side = d
		}
		lo[i] = 0
		if d > side {
			lo[i] = rng.Intn(d - side + 1)
		}
		hi[i] = lo[i] + side
	}
	return lo, hi, nil
}

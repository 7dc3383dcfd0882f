// Package dataset provides the grid-dataset abstraction shared by the
// paper's three evaluation workloads (§5.1): a validated grid shape and
// the random beam and range queries drawn over it.
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

// Package olap reproduces the paper's 4-D OLAP workload (§5.5): a data
// cube derived from TPC-H with dimensions (OrderDay, Quantity,
// NationID, PartTypeID), rolled up along OrderDay so two days share a
// cell, then chunked per disk — and the five queries Q1-Q5 run over it.
package olap

import (
	"fmt"
	"math/rand"
)

// Cube dimension indices, in the paper's order.
const (
	DimOrderDay = iota
	DimQuantity
	DimNationID
	DimPartTypeID
)

// ChunkDims returns the per-disk chunk the paper partitions the cube
// into: (591, 75, 25, 25).
func ChunkDims() []int { return []int{591, 75, 25, 25} }

// ScaledChunkDims shrinks the per-disk chunk for fast runs; scale 1 is
// paper size. The two unchunked dimensions (NationID, and the already
// halved PartTypeID) shrink too, but never below 4 cells.
func ScaledChunkDims(scale float64) ([]int, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("olap: scale %v outside (0,1]", scale)
	}
	full := ChunkDims()
	out := make([]int, len(full))
	for i, d := range full {
		out[i] = int(float64(d) * scale)
		if out[i] < 4 {
			out[i] = 4
		}
	}
	return out, nil
}

// Query is one of the paper's five OLAP queries as a box over the
// chunk: a beam (Q1, Q2) or a range (Q3-Q5).
type Query struct {
	Name string
	// Text is the paper's natural-language form.
	Text string
	// Lo and Hi bound the fetched box, hi exclusive.
	Lo, Hi []int
}

// Cells returns the number of cells the query touches.
func (q Query) Cells() int64 {
	n := int64(1)
	for i := range q.Lo {
		n *= int64(q.Hi[i] - q.Lo[i])
	}
	return n
}

// Queries instantiates Q1-Q5 against a chunk of the given shape, using
// rng to draw the fixed coordinates (the paper's P, Q, C, and date
// picks). Extents follow §5.5: a "year" is 183 two-day cells, "20
// days" is 10 cells, and Q5 spans 10 cells in each dimension, capped
// by the chunk.
func Queries(rng *rand.Rand, dims []int) ([]Query, error) {
	if len(dims) != 4 {
		return nil, fmt.Errorf("olap: chunk must be 4-D, got %d dims", len(dims))
	}
	for i, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("olap: dimension %d too short (%d)", i, d)
		}
	}
	pick := func(d int) int { return rng.Intn(d) }
	span := func(d, want int) (int, int) {
		if want > d {
			want = d
		}
		lo := 0
		if d > want {
			lo = rng.Intn(d - want + 1)
		}
		return lo, lo + want
	}
	year := scaleExtent(dims[DimOrderDay], 591, 183)
	days20 := scaleExtent(dims[DimOrderDay], 591, 10)
	ten := func(dim int) int { return scaleExtent(dims[dim], ChunkDims()[dim], 10) }

	p, q, c := pick(dims[DimPartTypeID]), pick(dims[DimQuantity]), pick(dims[DimNationID])
	day := pick(dims[DimOrderDay])

	queries := make([]Query, 0, 5)

	// Q1: beam along the major order (OrderDay).
	queries = append(queries, Query{
		Name: "Q1",
		Text: "profit of product P with quantity Q to country C over all dates",
		Lo:   []int{0, q, c, p},
		Hi:   []int{dims[DimOrderDay], q + 1, c + 1, p + 1},
	})
	// Q2: beam along a non-major dimension (NationID).
	queries = append(queries, Query{
		Name: "Q2",
		Text: "profit of product P with quantity Q on one date over all countries",
		Lo:   []int{day, q, 0, p},
		Hi:   []int{day + 1, q + 1, dims[DimNationID], p + 1},
	})
	// Q3: 2-D range over OrderDay x Quantity.
	lo0, hi0 := span(dims[DimOrderDay], year)
	queries = append(queries, Query{
		Name: "Q3",
		Text: "profit of product P at all quantities to country C in one year",
		Lo:   []int{lo0, 0, c, p},
		Hi:   []int{hi0, dims[DimQuantity], c + 1, p + 1},
	})
	// Q4: 3-D range adding all countries.
	lo0, hi0 = span(dims[DimOrderDay], year)
	queries = append(queries, Query{
		Name: "Q4",
		Text: "profit of product P over all countries and quantities in one year",
		Lo:   []int{lo0, 0, 0, p},
		Hi:   []int{hi0, dims[DimQuantity], dims[DimNationID], p + 1},
	})
	// Q5: 4-D range: 20 days x 10 quantities x 10 countries x 10 products.
	lo0, hi0 = span(dims[DimOrderDay], days20)
	lo1, hi1 := span(dims[DimQuantity], ten(DimQuantity))
	lo2, hi2 := span(dims[DimNationID], ten(DimNationID))
	lo3, hi3 := span(dims[DimPartTypeID], ten(DimPartTypeID))
	queries = append(queries, Query{
		Name: "Q5",
		Text: "profit of 10 products, 10 quantities, 10 countries within 20 days",
		Lo:   []int{lo0, lo1, lo2, lo3},
		Hi:   []int{hi0, hi1, hi2, hi3},
	})
	return queries, nil
}

// scaleExtent shrinks a paper-size extent proportionally to a scaled
// dimension, staying within [1, dim].
func scaleExtent(dim, fullDim, fullExtent int) int {
	e := fullExtent * dim / fullDim
	if e < 1 {
		e = 1
	}
	if e > dim {
		e = dim
	}
	return e
}

package olap

import (
	"fmt"
	"math/rand"
)

// LineItem is the projection of the TPC-H lineitem/orders/part join the
// paper's cube is built from:
//
//	select o_orderdate, l_quantity, c_nationkey, p_type, l_extendedprice
type LineItem struct {
	OrderDay int // days since the TPC-H epoch
	Quantity int // 1..150
	NationID int // 0..24
	PartType int // 0..49
	PriceC   int // extended price in cents
}

// GenLineItems deterministically generates n TPC-H-flavoured rows:
// order dates uniform over ~6.5 years (2361 days), quantities uniform
// 1..150, nations and part types uniform — matching the uniform
// distributions dbgen uses for these columns.
func GenLineItems(rng *rand.Rand, n int) []LineItem {
	items := make([]LineItem, n)
	for i := range items {
		items[i] = LineItem{
			OrderDay: rng.Intn(2361),
			Quantity: 1 + rng.Intn(150),
			NationID: rng.Intn(25),
			PartType: rng.Intn(50),
			PriceC:   100_000 + rng.Intn(9_900_000),
		}
	}
	return items
}

// Cube is the materialized 4-D aggregate: per-cell row counts and
// profit sums after the 2-day OrderDay roll-up (§5.5: "each cell ...
// corresponds to the sales of a specific order size for a specific
// product sold to a specific country within 2 days").
type Cube struct {
	dims    []int
	counts  []int32
	profitC []int64
}

// BuildCube aggregates rows into the paper's cube shape. dims must be
// 4-D; rows outside the (possibly scaled) cube are dropped, mimicking a
// chunk boundary.
func BuildCube(items []LineItem, dims []int) (*Cube, error) {
	if len(dims) != 4 {
		return nil, fmt.Errorf("olap: cube must be 4-D")
	}
	n := int64(1)
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("olap: dimension %d non-positive", i)
		}
		n *= int64(d)
	}
	c := &Cube{dims: append([]int(nil), dims...), counts: make([]int32, n), profitC: make([]int64, n)}
	for _, it := range items {
		cell := [4]int{it.OrderDay / 2, it.Quantity - 1, it.NationID, it.PartType}
		idx, ok := c.index(cell)
		if !ok {
			continue
		}
		c.counts[idx]++
		c.profitC[idx] += int64(it.PriceC)
	}
	return c, nil
}

func (c *Cube) index(cell [4]int) (int64, bool) {
	var idx, stride int64 = 0, 1
	for i := 0; i < 4; i++ {
		if cell[i] < 0 || cell[i] >= c.dims[i] {
			return 0, false
		}
		idx += int64(cell[i]) * stride
		stride *= int64(c.dims[i])
	}
	return idx, true
}

// ProfitCents answers a query box against the in-memory aggregate (the
// ground truth a storage experiment's fetched cells must reconstruct).
func (c *Cube) ProfitCents(q Query) (int64, error) {
	if len(q.Lo) != 4 || len(q.Hi) != 4 {
		return 0, fmt.Errorf("olap: query must be 4-D")
	}
	var total int64
	var cell [4]int
	for cell[0] = q.Lo[0]; cell[0] < q.Hi[0]; cell[0]++ {
		for cell[1] = q.Lo[1]; cell[1] < q.Hi[1]; cell[1]++ {
			for cell[2] = q.Lo[2]; cell[2] < q.Hi[2]; cell[2]++ {
				for cell[3] = q.Lo[3]; cell[3] < q.Hi[3]; cell[3]++ {
					idx, ok := c.index(cell)
					if !ok {
						return 0, fmt.Errorf("olap: query cell %v out of range", cell)
					}
					total += c.profitC[idx]
				}
			}
		}
	}
	return total, nil
}

package mapping

import (
	"fmt"
	"sync"

	"repro/internal/lvm"
	"repro/internal/sfc"
)

// curveMapper stores cells in space-filling-curve order: the cell with
// dense curve rank r lives at base+r (§5.2: cells ordered by curve
// value, packed with fill factor 1, stored sequentially).
type curveMapper struct {
	kind    Kind
	dims    []int
	ranked  *sfc.Ranked
	base    int64
	diskIdx int // the one disk holding the extent
}

// newCurveMapper lays out a grid of n cells in curve order.
func newCurveMapper(kind Kind, vol *lvm.Volume, dims []int, n int64, curve sfc.Curve, opts Options) (Mapper, error) {
	base, diskIdx, err := checkExtent(vol, n, opts)
	if err != nil {
		return nil, err
	}
	return &curveMapper{
		kind: kind, dims: append([]int(nil), dims...),
		ranked: sfc.NewRanked(curve), base: base, diskIdx: diskIdx,
	}, nil
}

func (c *curveMapper) Kind() Kind  { return c.kind }
func (c *curveMapper) Dims() []int { return c.dims }

func (c *curveMapper) CellVLBN(cell []int) (int64, error) {
	r, err := c.ranked.Rank(cell)
	if err != nil {
		return 0, err
	}
	return c.base + r, nil
}

// BoxRequests expands the box [lo,hi) into ascending coalesced
// requests: one request per maximal interval of curve ranks the box
// occupies, found by walking the curve's hierarchy rather than by
// visiting the box's cells. The walk appends to a pooled buffer and
// the result is one slice of exactly its length, not one grown from
// nil. (Counting the intervals in a first walk would size the slice
// up front, but the walk is most of the planner's cost: a second one
// made a 16³ box 30–70 % slower.) They read no padding.
func (c *curveMapper) BoxRequests(lo, hi []int) ([]lvm.Request, int64, error) {
	buf := walkBufs.Get().(*[]lvm.Request)
	runs := (*buf)[:0]
	err := c.ranked.BoxRuns(lo, hi, func(rank0, n int64) {
		runs = append(runs, lvm.Request{VLBN: c.base + rank0, Count: int(n)})
	})
	var out []lvm.Request
	if cap(runs) > maxWalkBuf {
		out, runs = runs, nil // too large to keep: hand the walk's own slice over
	} else {
		out = make([]lvm.Request, len(runs))
		copy(out, runs)
	}
	*buf = runs[:0]
	walkBufs.Put(buf)
	if err != nil {
		return nil, 0, fmt.Errorf("mapping: %s box: %w", c.kind, err)
	}
	return out, 0, nil
}

// walkBufs holds the curve walks' request buffers between plans; one
// grown past maxWalkBuf requests (64 KiB) becomes the result instead of
// being kept.
var walkBufs = sync.Pool{New: func() any { return new([]lvm.Request) }}

const maxWalkBuf = 4096

// SpanOnDisk: a curve-ordered dataset is one contiguous extent of
// densely packed ranks, wholly on one disk.
func (c *curveMapper) SpanOnDisk(di int) (int64, int64) {
	if di != c.diskIdx {
		return 0, 0
	}
	return c.base, c.base + c.ranked.Len()
}

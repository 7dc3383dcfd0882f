package mapping

import (
	"fmt"

	"repro/internal/lvm"
	"repro/internal/sfc"
)

// curveMapper stores cells in space-filling-curve order: the cell with
// dense curve rank r lives at base+r (§5.2: cells ordered by curve
// value, packed with fill factor 1, stored sequentially).
type curveMapper struct {
	kind       Kind
	dims       []int
	ranked     *sfc.Ranked
	base       int64
	cellBlocks int
	diskIdx    int // the one disk holding the extent
}

func newCurveMapper(kind Kind, vol *lvm.Volume, dims []int, curve sfc.Curve, opts Options) (Mapper, error) {
	base, diskIdx, err := checkExtent(vol, dims, opts)
	if err != nil {
		return nil, err
	}
	return &curveMapper{
		kind: kind, dims: append([]int(nil), dims...),
		ranked: sfc.NewRanked(curve), base: base, cellBlocks: opts.CellBlocks, diskIdx: diskIdx,
	}, nil
}

func (c *curveMapper) Kind() Kind  { return c.kind }
func (c *curveMapper) Dims() []int { return c.dims }

func (c *curveMapper) CellVLBN(cell []int) (int64, error) {
	r, err := c.ranked.Rank(cell)
	if err != nil {
		return 0, err
	}
	return c.base + r*int64(c.cellBlocks), nil
}

func (c *curveMapper) CellBlocks() int { return c.cellBlocks }

// BoxRequests expands the box [lo,hi) into ascending coalesced
// requests: one request per maximal interval of curve ranks the box
// occupies, found by walking the curve's hierarchy rather than by
// visiting the box's cells.
func (c *curveMapper) BoxRequests(lo, hi []int) ([]lvm.Request, error) {
	b := int64(c.cellBlocks)
	var out []lvm.Request
	err := c.ranked.BoxRuns(lo, hi, func(rank0, n int64) {
		out = append(out, lvm.Request{VLBN: c.base + rank0*b, Count: int(n * b)})
	})
	if err != nil {
		return nil, fmt.Errorf("mapping: %s box: %w", c.kind, err)
	}
	return out, nil
}

// CellAt inverts the placement: the cell stored at the block.
func (c *curveMapper) CellAt(vlbn int64, out []int) error {
	if vlbn < c.base || vlbn >= c.base+c.ranked.Len()*int64(c.cellBlocks) {
		return fmt.Errorf("mapping: VLBN %d outside the %s extent", vlbn, c.kind)
	}
	return c.ranked.CellAt((vlbn-c.base)/int64(c.cellBlocks), out)
}

// SpanVLBN: a curve-ordered dataset is one contiguous extent of densely
// packed ranks.
func (c *curveMapper) SpanVLBN() (int64, int64) {
	return c.base, c.base + sfc.NumCells(c.dims)*int64(c.cellBlocks)
}

// SpanOnDisk: the extent lives wholly on one disk.
func (c *curveMapper) SpanOnDisk(di int) (int64, int64) {
	if di != c.diskIdx {
		return 0, 0
	}
	return c.SpanVLBN()
}

package mapping

import (
	"fmt"

	"repro/internal/lvm"
)

// naiveMapper is the traditional linearization (§1): the dataset is
// stored row-major with Dim0 as the major order, in one contiguous
// extent. Access along Dim0 is sequential; every other dimension
// strides across the extent.
type naiveMapper struct {
	dims       []int
	strides    []int64 // row-major strides in blocks
	base       int64
	cells      int64
	cellBlocks int
	diskIdx    int // the one disk holding the extent
}

func newNaive(vol *lvm.Volume, dims []int, opts Options) (Mapper, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mapping: empty dimension list")
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mapping: dimension %d has non-positive length %d", i, d)
		}
	}
	base, diskIdx, err := checkExtent(vol, dims, opts)
	if err != nil {
		return nil, err
	}
	n := &naiveMapper{dims: append([]int(nil), dims...), base: base,
		cellBlocks: opts.CellBlocks, diskIdx: diskIdx}
	n.strides = make([]int64, len(dims))
	stride := int64(opts.CellBlocks)
	for i := range dims {
		n.strides[i] = stride
		stride *= int64(dims[i])
	}
	n.cells = stride / int64(opts.CellBlocks)
	return n, nil
}

func (n *naiveMapper) CellBlocks() int { return n.cellBlocks }

func (n *naiveMapper) CellExtents(cell []int) ([]lvm.Request, error) {
	vlbn, err := n.CellVLBN(cell)
	if err != nil {
		return nil, err
	}
	return []lvm.Request{{VLBN: vlbn, Count: n.cellBlocks}}, nil
}

func (n *naiveMapper) Kind() Kind  { return Naive }
func (n *naiveMapper) Dims() []int { return n.dims }

func (n *naiveMapper) CellVLBN(cell []int) (int64, error) {
	if len(cell) != len(n.dims) {
		return 0, fmt.Errorf("mapping: cell has %d dims, want %d", len(cell), len(n.dims))
	}
	var off int64
	for i, x := range cell {
		if x < 0 || x >= n.dims[i] {
			return 0, fmt.Errorf("mapping: coordinate %d = %d outside [0,%d)", i, x, n.dims[i])
		}
		off += int64(x) * n.strides[i]
	}
	return n.base + off, nil
}

// Dim0Run: a run along the major order is one contiguous request.
func (n *naiveMapper) Dim0Run(cell []int, length int) ([]lvm.Request, error) {
	if length <= 0 {
		return nil, fmt.Errorf("mapping: run length must be positive, got %d", length)
	}
	if cell[0]+length > n.dims[0] {
		return nil, fmt.Errorf("mapping: run [%d,+%d) exceeds Dim0 length %d", cell[0], length, n.dims[0])
	}
	vlbn, err := n.CellVLBN(cell)
	if err != nil {
		return nil, err
	}
	return []lvm.Request{{VLBN: vlbn, Count: length * n.cellBlocks}}, nil
}

// SpanVLBN: a naive dataset is one contiguous extent.
func (n *naiveMapper) SpanVLBN() (int64, int64) {
	return n.base, n.base + n.cells*int64(n.cellBlocks)
}

// SpanOnDisk: the extent lives wholly on one disk.
func (n *naiveMapper) SpanOnDisk(di int) (int64, int64) {
	if di != n.diskIdx {
		return 0, 0
	}
	return n.SpanVLBN()
}

var _ Dim0Runner = (*naiveMapper)(nil)

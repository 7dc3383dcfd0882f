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

// BoxRequests: the box's Dim0 rows are ascending in the major order,
// and rows join into one contiguous run exactly where every dimension
// below the first one the box does not span whole (j) is spanned
// whole. So the box is one request per coordinate of the dimensions
// above j, each reading dimension j's range of whole lower slabs,
// appended in ascending order with nothing to sort or merge.
func (n *naiveMapper) BoxRequests(lo, hi []int) ([]lvm.Request, error) {
	if len(lo) != len(n.dims) || len(hi) != len(n.dims) {
		return nil, fmt.Errorf("mapping: box has %d and %d dims, want %d", len(lo), len(hi), len(n.dims))
	}
	for i, d := range n.dims {
		if lo[i] < 0 || hi[i] > d || lo[i] >= hi[i] {
			return nil, fmt.Errorf("mapping: bad box [%d,%d) on dimension %d of length %d", lo[i], hi[i], i, d)
		}
	}
	last := len(n.dims) - 1
	j := 0
	for j < last && lo[j] == 0 && hi[j] == n.dims[j] {
		j++
	}
	count := int(int64(hi[j]-lo[j]) * n.strides[j])
	runs := 1
	for i := j + 1; i <= last; i++ {
		runs *= hi[i] - lo[i]
	}
	out := make([]lvm.Request, 0, runs)
	// x steps the dimensions above j, the lowest fastest.
	var buf [8]int
	x := append(buf[:0], lo...)
	for {
		vlbn := n.base
		for i := j; i <= last; i++ {
			vlbn += int64(x[i]) * n.strides[i]
		}
		out = append(out, lvm.Request{VLBN: vlbn, Count: count})
		i := j + 1
		for ; i <= last; i++ {
			if x[i]++; x[i] < hi[i] {
				break
			}
			x[i] = lo[i]
		}
		if i > last {
			return out, nil
		}
	}
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

// Package sfc implements the space-filling curves the paper compares
// against (§2, §5): Z-ordering (Orenstein), the Hilbert curve, and the
// Gray-coded curve (Faloutsos), plus the rank compaction that packs a
// curve over a non-power-of-two grid into a dense sequence of cells
// "stored sequentially on disks" (§5.2).
//
// Each curve is also a hierarchy (walk.go): an aligned sub-box of the
// key space is one contiguous key interval, so a box of cells is a few
// intervals per unit of its surface rather than one key per cell. One
// in-order walk of that hierarchy builds the rank compaction (the runs
// of in-grid keys) and plans a query box (Ranked.BoxRuns).
package sfc

import (
	"fmt"
	"math/bits"
)

// bitsFor returns the number of bits needed to index a dimension of
// length n (at least 1).
func bitsFor(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// checkDims validates a grid shape and returns the per-dimension bit
// widths.
func checkDims(dims []int) ([]int, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("sfc: empty dimension list")
	}
	bw := make([]int, len(dims))
	total := 0
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("sfc: dimension %d has non-positive length %d", i, d)
		}
		bw[i] = bitsFor(d)
		total += bw[i]
	}
	if total > maxKeyBits {
		return nil, fmt.Errorf("sfc: grid needs %d key bits, max %d", total, maxKeyBits)
	}
	return bw, nil
}

// ZOrder enumerates an N-dimensional grid in Z (Morton) order, with
// per-dimension bit widths so elongated grids interleave only as many
// bits as each dimension needs.
type ZOrder struct {
	dims []int
	bw   []int // bit width per dimension
	hier hierarchy
}

// NewZOrder builds a Z-order curve over the given grid shape.
func NewZOrder(dims []int) (*ZOrder, error) {
	bw, err := checkDims(dims)
	if err != nil {
		return nil, err
	}
	return &ZOrder{dims: append([]int(nil), dims...), bw: bw, hier: newHierarchy(bw, false, false)}, nil
}

// Dims returns the grid shape.
func (z *ZOrder) Dims() []int { return z.dims }

func (z *ZOrder) tree() *hierarchy { return &z.hier }

// Key maps a cell coordinate to its Z-order key. Bits are interleaved
// round-robin from the most significant downward, skipping dimensions
// that have exhausted their width — the standard generalization to
// unequal dimension lengths.
func (z *ZOrder) Key(cell []int) (uint64, error) {
	if err := z.validate(cell); err != nil {
		return 0, err
	}
	var key uint64
	for j := 0; j < z.hier.keyBits; j++ {
		key = key<<1 | uint64(cell[z.hier.axis[j]]>>z.hier.shift[j])&1
	}
	return key, nil
}

func (z *ZOrder) validate(cell []int) error {
	if len(cell) != len(z.dims) {
		return fmt.Errorf("sfc: cell has %d dims, want %d", len(cell), len(z.dims))
	}
	for i, c := range cell {
		// Unsigned: a negative coordinate is large, and 1<<63 fits.
		if uint64(c) >= 1<<uint(z.bw[i]) {
			return fmt.Errorf("sfc: coordinate %d = %d outside key space [0,%d)", i, c, uint64(1)<<uint(z.bw[i]))
		}
	}
	return nil
}

// GrayCurve orders cells by the Gray-coded curve of Faloutsos: the
// Z-order key reinterpreted as a reflected Gray code. Neighbouring keys
// differ in one interleaved bit, improving clustering slightly over
// plain Z-order.
type GrayCurve struct {
	z    *ZOrder
	hier hierarchy // z's, Gray-decoded
}

// NewGrayCurve builds a Gray-coded curve over the grid shape.
func NewGrayCurve(dims []int) (*GrayCurve, error) {
	z, err := NewZOrder(dims)
	if err != nil {
		return nil, err
	}
	g := &GrayCurve{z: z, hier: z.hier}
	g.hier.gray = true
	return g, nil
}

// Dims returns the grid shape.
func (g *GrayCurve) Dims() []int { return g.z.dims }

func (g *GrayCurve) tree() *hierarchy { return &g.hier }

// Key maps a cell to its position along the Gray-coded curve.
func (g *GrayCurve) Key(cell []int) (uint64, error) {
	zk, err := g.z.Key(cell)
	if err != nil {
		return 0, err
	}
	return grayToBinary(zk), nil
}

// grayToBinary decodes a reflected Gray code, v ^ v>>1 ^ v>>2 ^ …
func grayToBinary(v uint64) uint64 {
	for shift := uint(1); shift < 64; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}

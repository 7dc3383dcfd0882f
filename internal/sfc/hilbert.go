package sfc

import "fmt"

// Hilbert enumerates an N-dimensional grid along the Hilbert curve,
// using Skilling's transpose algorithm (AIP Conf. Proc. 707, 2004).
// All dimensions share the bit width of the longest one; non-square
// grids are handled downstream by rank compaction, matching the paper's
// implementation which orders the dataset's cells by curve value and
// packs them densely (§5.2).
type Hilbert struct {
	dims  []int
	order int // bits per dimension
	hier  hierarchy
}

// NewHilbert builds a Hilbert curve over the given grid shape.
func NewHilbert(dims []int) (*Hilbert, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("sfc: empty dimension list")
	}
	order := 1
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("sfc: dimension %d has non-positive length %d", i, d)
		}
		if b := bitsFor(d); b > order {
			order = b
		}
	}
	if kb := order * len(dims); kb > maxKeyBits {
		return nil, fmt.Errorf("sfc: Hilbert key needs %d bits, max %d", kb, maxKeyBits)
	}
	bw := make([]int, len(dims))
	for i := range bw {
		bw[i] = order
	}
	return &Hilbert{dims: append([]int(nil), dims...), order: order, hier: newHierarchy(bw, true, true)}, nil
}

// Dims returns the grid shape.
func (h *Hilbert) Dims() []int { return h.dims }

// KeyBits returns the number of significant bits in a key.
func (h *Hilbert) KeyBits() int { return h.hier.keyBits }

func (h *Hilbert) tree() *hierarchy { return &h.hier }

// Key maps a cell coordinate to its Hilbert index.
func (h *Hilbert) Key(cell []int) (uint64, error) {
	if len(cell) != len(h.dims) {
		return 0, fmt.Errorf("sfc: cell has %d dims, want %d", len(cell), len(h.dims))
	}
	var scratch [maxKeyBits]uint32
	x := scratch[:len(cell)]
	for i, c := range cell {
		if c < 0 || c >= 1<<uint(h.order) {
			return 0, fmt.Errorf("sfc: coordinate %d = %d outside curve space [0,%d)", i, c, 1<<uint(h.order))
		}
		x[i] = uint32(c)
	}
	axesToTranspose(x, h.order)
	return h.interleaveTransposed(x), nil
}

// Cell inverts Key, writing the coordinate into out.
func (h *Hilbert) Cell(key uint64, out []int) error {
	if len(out) != len(h.dims) {
		return fmt.Errorf("sfc: out has %d dims, want %d", len(out), len(h.dims))
	}
	if key >= 1<<uint(h.hier.keyBits) {
		return fmt.Errorf("sfc: key %d outside curve space", key)
	}
	var scratch [maxKeyBits]uint32
	x := scratch[:len(out)]
	h.deinterleaveTransposed(key, x)
	transposeToAxes(x, h.order)
	for i := range out {
		out[i] = int(x[i])
	}
	return nil
}

// interleaveTransposed packs the transposed representation into a
// single integer: bit (order-1) of x[0] is the most significant key
// bit, then bit (order-1) of x[1], and so on.
func (h *Hilbert) interleaveTransposed(x []uint32) uint64 {
	var key uint64
	for level := h.order - 1; level >= 0; level-- {
		for i := range x {
			key = key<<1 | uint64(x[i]>>uint(level))&1
		}
	}
	return key
}

// deinterleaveTransposed inverts interleaveTransposed into the zeroed x.
func (h *Hilbert) deinterleaveTransposed(key uint64, x []uint32) {
	shift := h.hier.keyBits
	for level := h.order - 1; level >= 0; level-- {
		for i := range x {
			shift--
			x[i] |= uint32(key>>uint(shift)&1) << uint(level)
		}
	}
}

// axesToTranspose converts coordinates to the transposed Hilbert index
// in place. Skilling's algorithm: undo excess work from the high bit
// down, then Gray-encode.
func axesToTranspose(x []uint32, order int) {
	n := len(x)
	m := uint32(1) << uint(order-1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose in place.
func transposeToAxes(x []uint32, order int) {
	n := len(x)
	m := uint32(2) << uint(order-1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

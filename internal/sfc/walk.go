package sfc

// maxKeyBits is the widest key a curve may use. Every dimension takes
// at least one key bit, so it also bounds the number of dimensions and
// sizes the stack arrays the curves and the walk work in.
const maxKeyBits = 63

// hierarchy is a curve seen as a binary tree over its key bits: a key
// prefix of j bits is an axis-aligned box of the key space, and key bit
// j halves that box along one dimension, the 0 half first in key order
// unless the curve reverses it. Every curve here has that shape — it is
// why an aligned sub-box is one contiguous key interval — and differs
// only in which dimension a bit halves and which half comes first:
//
//   - Z-order: bit j halves dimension axis[j] at coordinate bit
//     shift[j]; low half first.
//   - Gray: the same, but the key is Gray-decoded first, so the half
//     order flips whenever the previous key bit was 1.
//   - Hilbert (Skilling): Gray-decoded as well, and each level's digit
//     also re-orients the levels beneath it: axis[j] names an axis of
//     the curve's own frame, which a signed permutation carried down
//     the walk turns into a grid dimension and a reflection.
type hierarchy struct {
	n        int // dimensions
	keyBits  int
	axis     [maxKeyBits]uint8 // per key bit, 0 = most significant
	shift    [maxKeyBits]uint8
	width    [maxKeyBits]uint8 // per dimension: its side of the key space is 1<<width
	gray     bool
	oriented bool
}

// newHierarchy interleaves the dimensions' bits round-robin from the
// most significant level downward, skipping dimensions that have
// exhausted their width bw[i].
func newHierarchy(bw []int, gray, oriented bool) hierarchy {
	h := hierarchy{n: len(bw), gray: gray, oriented: oriented}
	top := 0
	for _, b := range bw {
		top = max(top, b)
	}
	for i, b := range bw {
		h.width[i] = uint8(b)
	}
	for level := top - 1; level >= 0; level-- {
		for i, b := range bw {
			if level < b {
				h.axis[h.keyBits] = uint8(i)
				h.shift[h.keyBits] = uint8(level)
				h.keyBits++
			}
		}
	}
	return h
}

// reflected marks, in a walker's orient entries, a grid dimension the
// Hilbert orientation traverses high half first.
const reflected = 0x80

// walker is the state of one in-order walk of a hierarchy over the box
// [lo,hi). It lives on the walk's stack frame; descend mutates corner
// and orient in place and restores what its caller still needs.
type walker struct {
	h      *hierarchy
	lo, hi []int
	emit   func(key0, n uint64)
	// corner is the low corner of the node being visited. Unsigned, as
	// are the comparisons against it: a 63-bit dimension's upper half
	// ends at 1<<63.
	corner [maxKeyBits]uint64
	// orient is the Hilbert orientation in force at each key bit: the
	// bit's frame axis h.axis[j] is grid dimension orient[j]&^reflected.
	// One level's entries are derived from the level above on entry
	// (orientLevel), so they stay valid for the whole subtree.
	orient [maxKeyBits]uint8
	// key0, n is the interval being merged; n == 0 when there is none.
	key0, n uint64
}

// walk calls emit(key0, n) for the maximal key intervals [key0, key0+n)
// whose cells make up the box [lo,hi), in ascending key order. The box
// must be non-empty and inside the key space; the exported callers
// check that. The work is proportional to the number of tree nodes the
// box's surface cuts, not to its volume.
func (h *hierarchy) walk(lo, hi []int, emit func(key0, n uint64)) {
	w := walker{h: h, lo: lo, hi: hi, emit: emit}
	// open has a bit per dimension in which the node is not yet wholly
	// inside the box; a node with none open is emitted, not descended.
	var open uint64
	for i := 0; i < h.n; i++ {
		if lo[i] > 0 || uint64(hi[i]) < 1<<h.width[i] {
			open |= 1 << uint(i)
		}
		w.orient[i] = uint8(i)
	}
	if open == 0 {
		emit(0, 1<<uint(h.keyBits))
		return
	}
	w.descend(0, 0, open)
	if w.n > 0 {
		emit(w.key0, w.n)
	}
}

// descend visits the node whose key prefix is the j bits in prefix: its
// two children in key order, pruning the one disjoint from the box,
// emitting the one wholly inside, descending into the one the box cuts.
func (w *walker) descend(j int, prefix, open uint64) {
	h := w.h
	d := uint(h.axis[j])
	// first is the coordinate bit of the child with key bit 0.
	var first uint64
	if h.gray {
		first = prefix & 1
	}
	if h.oriented {
		if d == 0 && j > 0 {
			w.orientLevel(j, prefix)
		}
		o := w.orient[j]
		d = uint(o &^ reflected)
		first ^= uint64(o >> 7)
	}
	s := uint(h.shift[j])
	rest := uint(h.keyBits - j - 1)
	base := w.corner[d]
	lo, hi := uint64(w.lo[d]), uint64(w.hi[d])
	for b := uint64(0); b < 2; b++ {
		c := base | (b^first)<<s
		end := c + 1<<s
		childOpen := open
		if open>>d&1 != 0 {
			if c >= hi || end <= lo {
				continue
			}
			if c >= lo && end <= hi {
				childOpen &^= 1 << d
			}
		}
		key := prefix<<1 | b
		if childOpen == 0 {
			w.add(key<<rest, 1<<rest)
			continue
		}
		w.corner[d] = c
		w.descend(j+1, key, childOpen)
	}
	w.corner[d] = base
}

// add appends an emitted interval to the one being merged, or flushes
// that one and starts anew.
func (w *walker) add(key0, n uint64) {
	if w.n > 0 && w.key0+w.n == key0 {
		w.n += n
		return
	}
	if w.n > 0 {
		w.emit(w.key0, w.n)
	}
	w.key0, w.n = key0, n
}

// orientLevel derives the orientation of the level starting at key bit
// j from that of the level above and the digit just completed — the low
// n bits of prefix. It is the "undo excess work" loop of Skilling's
// transposeToAxes read top-down: for frame axis i, a set Gray-decoded
// digit bit reflects frame axis 0 in all lower levels and a clear one
// exchanges frame axes 0 and i, applied on the right of the orientation
// so far (hilbert.go applies them from the lowest level up; composing
// downward visits the same operations in the opposite order).
func (w *walker) orientLevel(j int, prefix uint64) {
	n := w.h.n
	cur := w.orient[j : j+n]
	copy(cur, w.orient[j-n:j])
	g := prefix ^ prefix>>1
	for i := 0; i < n; i++ {
		if g>>uint(n-1-i)&1 != 0 {
			cur[0] ^= reflected
		} else {
			cur[0], cur[i] = cur[i], cur[0]
		}
	}
}

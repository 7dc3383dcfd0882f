package sfc

import (
	"fmt"
	"math"
	"sort"
)

// Curve is an invertible mapping between grid cells and positions along
// a space-filling curve. Keys are unique per cell but, on grids whose
// side lengths are not powers of two, not dense: the curve also visits
// points outside the grid.
type Curve interface {
	// Dims returns the grid shape the curve was built for.
	Dims() []int
	// Key returns the cell's position along the curve.
	Key(cell []int) (uint64, error)
	// Cell inverts Key into out.
	Cell(key uint64, out []int) error
	// tree returns the curve's hierarchy, which Ranked walks.
	tree() *hierarchy
}

// NumCells returns the number of cells in a grid shape. It fails on an
// empty shape, a side that is not positive, and a count that overflows
// int64, so a caller can size storage by the count before building
// anything else.
func NumCells(dims []int) (int64, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("sfc: empty dimension list")
	}
	n := int64(1)
	for i, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("sfc: dimension %d has non-positive length %d", i, d)
		}
		if n > math.MaxInt64/int64(d) {
			return 0, fmt.Errorf("sfc: grid %v has more than %d cells", dims, int64(math.MaxInt64))
		}
		n *= int64(d)
	}
	return n, nil
}

// Ranked densifies a curve over its grid: cells are numbered 0..N-1 in
// curve order with no gaps. This reproduces the paper's layout step
// where cells ordered by curve value are "stored sequentially on disks"
// (§5.2). The numbering is kept as the maximal runs of consecutive
// in-grid keys, each with the rank of its first cell — 16 bytes per
// run, and the runs number about as many as the cells on the grid's
// non-power-of-two faces (259³: 117 133 for Z-order, 49 489 for
// Hilbert); a power-of-two grid is a single run.
type Ranked struct {
	curve Curve
	n     int64
	// runs ascends in both fields; the last entry is a sentinel one past
	// the key space with rank0 == n, so run i holds
	// runs[i+1].rank0-runs[i].rank0 cells.
	runs []run
}

// run is a maximal interval of in-grid keys starting at key0, whose
// cells take the dense ranks from rank0 on.
type run struct {
	key0  uint64
	rank0 int64
}

// NewRanked builds the dense ranking for the curve over its grid, in one
// walk of the curve's hierarchy over the grid box.
func NewRanked(curve Curve) *Ranked {
	dims := curve.Dims()
	h := curve.tree()
	r := &Ranked{curve: curve}
	h.walk(make([]int, len(dims)), dims, func(key0, n uint64) {
		r.runs = append(r.runs, run{key0, r.n})
		r.n += int64(n)
	})
	r.runs = append(r.runs, run{1 << uint(h.keyBits), r.n})
	return r
}

// Len returns the number of cells.
func (r *Ranked) Len() int64 { return r.n }

// runOfKey returns the index of the last run starting at or before key,
// searching from run from, which must itself start at or before key: a
// gallop forward and then a binary search, so a caller moving through
// ascending keys pays for the distance moved, not for the table.
func (r *Ranked) runOfKey(key uint64, from int) int {
	lo, hi := from, len(r.runs)-1
	for step := 1; lo+step < hi; step <<= 1 {
		if r.runs[lo+step].key0 > key {
			hi = lo + step
			break
		}
		lo += step
	}
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); r.runs[mid].key0 <= key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Rank returns the cell's dense position along the curve, in [0, Len).
func (r *Ranked) Rank(cell []int) (int64, error) {
	k, err := r.curve.Key(cell)
	if err != nil {
		return 0, err
	}
	// The origin is in every grid and has key 0, so run 0 starts at or
	// before any key.
	i := r.runOfKey(k, 0)
	off := int64(k - r.runs[i].key0)
	if off >= r.runs[i+1].rank0-r.runs[i].rank0 {
		return 0, fmt.Errorf("sfc: cell %v not in ranked grid", cell)
	}
	return r.runs[i].rank0 + off, nil
}

// CellAt inverts Rank, writing the cell with the given dense position
// into out.
func (r *Ranked) CellAt(rank int64, out []int) error {
	if rank < 0 || rank >= r.n {
		return fmt.Errorf("sfc: rank %d out of [0,%d)", rank, r.n)
	}
	// The run holding rank: the first whose successor starts past it.
	i := sort.Search(len(r.runs)-1, func(i int) bool { return r.runs[i+1].rank0 > rank })
	return r.curve.Cell(r.runs[i].key0+uint64(rank-r.runs[i].rank0), out)
}

// BoxRuns calls emit(rank0, n) for the maximal intervals of dense ranks
// [rank0, rank0+n) that the cells of the box [lo,hi) occupy, in
// ascending order. The hierarchy walk yields the box as key intervals;
// an interval of in-grid keys lies within one run, so one run lookup
// turns it into ranks, and intervals the compaction brought together
// (the keys between them are off the grid) are merged.
func (r *Ranked) BoxRuns(lo, hi []int, emit func(rank0, n int64)) error {
	dims := r.curve.Dims()
	if len(lo) != len(dims) || len(hi) != len(dims) {
		return fmt.Errorf("sfc: box has %d and %d dims, want %d", len(lo), len(hi), len(dims))
	}
	for i, d := range dims {
		if lo[i] < 0 || hi[i] > d || lo[i] >= hi[i] {
			return fmt.Errorf("sfc: bad box [%d,%d) on dimension %d of length %d", lo[i], hi[i], i, d)
		}
	}
	var rank0, n int64 // the interval being merged; n == 0 when none
	at := 0
	r.curve.tree().walk(lo, hi, func(key0, count uint64) {
		at = r.runOfKey(key0, at)
		rank := r.runs[at].rank0 + int64(key0-r.runs[at].key0)
		if n > 0 && rank0+n == rank {
			n += int64(count)
			return
		}
		if n > 0 {
			emit(rank0, n)
		}
		rank0, n = rank, int64(count)
	})
	emit(rank0, n)
	return nil
}

// Package mapping provides a uniform interface over the four data
// placements the paper evaluates (§5): Naive (linearized along Dim0),
// Z-order, Hilbert, and MultiMap, plus the Gray-coded curve mentioned
// in related work. All mappers place an N-dimensional grid of
// single-block cells onto a logical volume.
package mapping

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lvm"
	"repro/internal/sfc"
)

// Kind identifies a mapping algorithm.
type Kind int

const (
	Naive Kind = iota
	ZOrder
	Hilbert
	Gray
	MultiMap
)

// Kinds lists the four mappings compared in the paper's evaluation, in
// the order its figures use.
func Kinds() []Kind { return []Kind{Naive, ZOrder, Hilbert, MultiMap} }

func (k Kind) String() string {
	switch k {
	case Naive:
		return "Naive"
	case ZOrder:
		return "Z-order"
	case Hilbert:
		return "Hilbert"
	case Gray:
		return "Gray"
	case MultiMap:
		return "MultiMap"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a CLI-friendly name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "naive":
		return Naive, nil
	case "zorder", "z-order", "z":
		return ZOrder, nil
	case "hilbert":
		return Hilbert, nil
	case "gray":
		return Gray, nil
	case "multimap", "mm":
		return MultiMap, nil
	default:
		return 0, fmt.Errorf("mapping: unknown kind %q", s)
	}
}

// Mapper places grid cells on a volume. Implementations are safe for
// concurrent readers after construction.
type Mapper interface {
	// Kind identifies the algorithm.
	Kind() Kind
	// Dims returns the dataset side lengths.
	Dims() []int
	// CellVLBN returns the volume LBN storing the cell.
	CellVLBN(cell []int) (int64, error)
	// BoxRequests expands the box [lo,hi) into the ascending, coalesced
	// requests that read exactly its cells, without one lookup per cell:
	// Naive and MultiMap step the box's Dim0 rows, the curves walk the
	// curve's hierarchy.
	BoxRequests(lo, hi []int) ([]lvm.Request, error)
	// SpanOnDisk reports the half-open VLBN interval the dataset
	// occupies within disk di's segment (start == end when the dataset
	// does not touch that disk). The interval is conservative (it may
	// include allocation gaps and unfilled edge-cube space). The update
	// layer validates one overflow extent per disk against only the
	// cells actually placed there — under a declustered MultiMap
	// dataset a volume-wide span straddles every disk and would falsely
	// collide with any per-disk tail extent.
	SpanOnDisk(di int) (start, end int64)
}

// Options configures dataset placement for all mappers.
type Options struct {
	// DiskIdx pins the dataset to one member disk; -1 lets MultiMap
	// decluster basic cubes across disks (linear mappings treat -1 as
	// disk 0: a linearized dataset is a single contiguous extent).
	DiskIdx int
}

// New builds a mapper of the given kind for a dataset. The grid's cell
// count is checked before anything sized by it is built: it must not
// overflow int64 and must fit the volume, one block a cell.
func New(kind Kind, vol *lvm.Volume, dims []int, opts Options) (Mapper, error) {
	n, err := sfc.NumCells(dims)
	if err != nil {
		return nil, err
	}
	if n > vol.TotalBlocks() {
		return nil, fmt.Errorf("mapping: %d cells do not fit the volume's %d blocks", n, vol.TotalBlocks())
	}
	switch kind {
	case Naive:
		return newNaive(vol, dims, n, opts)
	case ZOrder:
		c, err := sfc.NewZOrder(dims)
		if err != nil {
			return nil, err
		}
		return newCurveMapper(ZOrder, vol, dims, n, c, opts)
	case Hilbert:
		c, err := sfc.NewHilbert(dims)
		if err != nil {
			return nil, err
		}
		return newCurveMapper(Hilbert, vol, dims, n, c, opts)
	case Gray:
		c, err := sfc.NewGrayCurve(dims)
		if err != nil {
			return nil, err
		}
		return newCurveMapper(Gray, vol, dims, n, c, opts)
	case MultiMap:
		return newMultiMapper(vol, dims, opts)
	default:
		return nil, fmt.Errorf("mapping: unknown kind %d", int(kind))
	}
}

// Dim0Align returns the Dim0 slab-alignment quantum for sharding a
// dataset of the given shape under the given placement: MultiMap's
// basic-cube side K0 — so shard slab boundaries coincide with cube
// boundaries and no cube's sequential Dim0 run is split across shards
// — and 1 for the linear mappings, whose locality has no Dim0 grain.
// The volume stands in for any shard member (all shards mirror its
// geometry), and nothing is allocated.
func Dim0Align(kind Kind, vol *lvm.Volume, dims []int, opts Options) (int, error) {
	if kind != MultiMap {
		return 1, nil
	}
	spec, err := core.ChooseCube(vol, dims, core.MapOptions{DiskIdx: opts.DiskIdx})
	if err != nil {
		return 0, err
	}
	return spec.K[0], nil
}

// checkExtent validates that a linear extent of n cells, starting at
// the chosen disk's segment start, fits on that disk.
func checkExtent(vol *lvm.Volume, n int64, opts Options) (base int64, diskIdx int, err error) {
	diskIdx = opts.DiskIdx
	if diskIdx < 0 {
		diskIdx = 0
	}
	if diskIdx >= vol.NumDisks() {
		return 0, 0, fmt.Errorf("mapping: disk index %d out of range", diskIdx)
	}
	if n > vol.DiskBlocks(diskIdx) {
		return 0, 0, fmt.Errorf("mapping: extent of %d blocks does not fit on disk %d (%d blocks)",
			n, diskIdx, vol.DiskBlocks(diskIdx))
	}
	return vol.DiskStart(diskIdx), diskIdx, nil
}

// multiMapper adapts core.Mapping to the Mapper interface.
type multiMapper struct {
	m *core.Mapping
}

func newMultiMapper(vol *lvm.Volume, dims []int, opts Options) (Mapper, error) {
	m, err := core.NewMapping(vol, dims, core.MapOptions{DiskIdx: opts.DiskIdx})
	if err != nil {
		return nil, err
	}
	return &multiMapper{m: m}, nil
}

func (mm *multiMapper) Kind() Kind  { return MultiMap }
func (mm *multiMapper) Dims() []int { return mm.m.Dims() }

func (mm *multiMapper) CellVLBN(cell []int) (int64, error) { return mm.m.CellVLBN(cell) }

func (mm *multiMapper) BoxRequests(lo, hi []int) ([]lvm.Request, error) {
	return mm.m.BoxRequests(lo, hi)
}

func (mm *multiMapper) SpanOnDisk(di int) (int64, int64) { return mm.m.SpanOnDisk(di) }

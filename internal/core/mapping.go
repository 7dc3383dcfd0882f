package core

import (
	"fmt"

	"repro/internal/lvm"
)

// Mapping is a MultiMap placement of an N-dimensional dataset on a
// logical volume: the dataset is cut into basic cubes (§4.4), cubes are
// allocated within disk zones (never across a zone boundary), and cells
// inside each cube follow the Fig. 5 adjacency chains.
type Mapping struct {
	vol        *lvm.Volume
	dims       []int
	spec       *CubeSpec
	cellBlocks int // blocks per cell

	cubesPerDim []int
	cubeStride  []int // row-major strides over the cube grid
	cubes       []cubePlace
	nextFree    int64 // first VLBN after the last allocated cube group
}

// cubePlace is one allocated basic cube.
type cubePlace struct {
	// base is the VLBN storing the cube's (0,...,0) cell.
	base int64
	// zoneStart and trackLen give the containing zone so sector
	// arithmetic (wrap along a track) works with plain LBN math.
	zoneStart int64
	trackLen  int
	diskIdx   int
	// heads[j] is the VLBN of cell (0, x1, ..., xN-1) where j is the
	// mixed-radix inner index sum(x_i * spec.strides[i]). Cells along
	// Dim0 occupy consecutive sectors (mod T) after the head.
	heads []int64
}

// MapOptions controls dataset placement.
type MapOptions struct {
	// DiskIdx pins all cubes to one member disk; -1 declusters cubes
	// round-robin across all disks (§4.4).
	DiskIdx int
	// MinTrackLen skips zones with tracks shorter than this. Zero
	// means any zone at least K0 long.
	MinTrackLen int
	// StartVLBN makes allocation begin at the first whole track at or
	// after this volume address, so several mappings can share a disk.
	StartVLBN int64
	// CellBlocks is the cell size in blocks (default 1). The paper
	// notes a cell may occupy multiple LBNs without affecting the
	// approach: Dim0 stays sequential (cells are back-to-back runs)
	// and adjacency chains hop from the end of each multi-block cell.
	CellBlocks int
}

// ChooseCube runs the basic-cube selection phase of NewMapping —
// option validation, zone filtering, and the §4.4 spec choice — without
// allocating anything on the volume. The shard router uses it to learn
// the Dim0 cube side K0 (its slab alignment quantum) before any
// per-shard mapping exists; NewMapping itself builds on it.
func ChooseCube(vol *lvm.Volume, dims []int, opts MapOptions) (*CubeSpec, error) {
	spec, _, err := chooseCubeZones(vol, dims, opts)
	return spec, err
}

// chooseCubeZones is ChooseCube plus the usable-zone list the spec was
// sized for, which the allocation phase needs too.
func chooseCubeZones(vol *lvm.Volume, dims []int, opts MapOptions) (*CubeSpec, []lvm.ZoneExtent, error) {
	if len(dims) < 2 {
		return nil, nil, fmt.Errorf("core: MultiMap needs at least 2 dimensions, got %d", len(dims))
	}
	if opts.CellBlocks == 0 {
		opts.CellBlocks = 1
	}
	if opts.CellBlocks < 1 {
		return nil, nil, fmt.Errorf("core: cell size %d blocks must be positive", opts.CellBlocks)
	}
	zones := usableZones(vol, opts)
	if len(zones) == 0 {
		return nil, nil, fmt.Errorf("core: no usable zones on volume for options %+v", opts)
	}
	// Size the cube for the first allocation zone; K0 is additionally
	// capped by the smallest track length among candidate zones so a
	// cube fits wherever it lands (§4.4 discussion). Multi-block cells
	// shrink the per-track cell budget (Eq. 1 becomes K0*B <= T).
	minT := zones[0].TrackLen
	for _, z := range zones {
		if z.TrackLen < minT {
			minT = z.TrackLen
		}
	}
	if minT/opts.CellBlocks < 1 {
		return nil, nil, fmt.Errorf("core: cell size %d exceeds the shortest track (%d blocks)",
			opts.CellBlocks, minT)
	}
	spec, err := ChooseBasicCube(dims, minT/opts.CellBlocks, vol.AdjacencyDepth(), zones[0].Tracks)
	if err != nil {
		return nil, nil, err
	}
	return spec, zones, nil
}

// NewMapping allocates and maps a dataset of the given side lengths.
// The basic cube is chosen per §4.4 from the first usable zone; in
// zones with different track lengths only the per-track packing count
// changes, so cube addressing stays uniform.
func NewMapping(vol *lvm.Volume, dims []int, opts MapOptions) (*Mapping, error) {
	if opts.CellBlocks == 0 {
		opts.CellBlocks = 1
	}
	spec, zones, err := chooseCubeZones(vol, dims, opts)
	if err != nil {
		return nil, err
	}
	// Fit loop: a cube whose track group doesn't divide the zones'
	// track counts evenly can strand capacity (leftover tracks shorter
	// than one group per zone). If allocation fails, shrink the last
	// dimension — halving the group size roughly halves the stranding —
	// and retry; give up when the cube bottoms out.
	for {
		m, allocErr := newMappingWithSpec(vol, dims, spec, zones, opts.StartVLBN, opts.CellBlocks)
		if allocErr == nil {
			return m, nil
		}
		if spec.K[len(spec.K)-1] <= 1 {
			return nil, allocErr
		}
		shrunk := append([]int(nil), spec.K...)
		shrunk[len(shrunk)-1] = (shrunk[len(shrunk)-1] + 1) / 2
		spec, err = NewCubeSpec(shrunk, spec.T, spec.D, zones[0].Tracks)
		if err != nil {
			return nil, err
		}
	}
}

// newMappingWithSpec builds a mapping for one candidate cube spec.
func newMappingWithSpec(vol *lvm.Volume, dims []int, spec *CubeSpec,
	zones []lvm.ZoneExtent, startVLBN int64, cellBlocks int) (*Mapping, error) {
	m := &Mapping{vol: vol, dims: append([]int(nil), dims...), spec: spec, cellBlocks: cellBlocks}
	m.cubesPerDim = make([]int, len(dims))
	m.cubeStride = make([]int, len(dims))
	stride := 1
	for i := range dims {
		m.cubesPerDim[i] = (dims[i] + spec.K[i] - 1) / spec.K[i]
		m.cubeStride[i] = stride
		stride *= m.cubesPerDim[i]
	}
	nCubes := stride
	if err := m.allocate(zones, nCubes, startVLBN); err != nil {
		return nil, err
	}
	if err := m.buildChains(); err != nil {
		return nil, err
	}
	return m, nil
}

// usableZones filters and orders the volume's zone extents per options.
func usableZones(vol *lvm.Volume, opts MapOptions) []lvm.ZoneExtent {
	var out []lvm.ZoneExtent
	for _, z := range vol.Zones() {
		if opts.DiskIdx >= 0 && z.DiskIdx != opts.DiskIdx {
			continue
		}
		if z.TrackLen < opts.MinTrackLen {
			continue
		}
		out = append(out, z)
	}
	return out
}

// cubeCursor hands out cube slots from one disk's zones, group by
// group, honouring the start address.
type cubeCursor struct {
	spec       *CubeSpec
	cellBlocks int
	zones      []lvm.ZoneExtent
	startVLBN  int64
	zi         int // current zone
	group      int // current group within the zone
	slot       int // next packing slot within the group
}

// next returns the next cube placement on this disk plus the first
// VLBN past its group, or ok=false when the disk is full.
func (c *cubeCursor) next() (cubePlace, int64, bool) {
	groupTracks := c.spec.Tracks()
	slotBlocks := c.spec.K[0] * c.cellBlocks
	for c.zi < len(c.zones) {
		z := c.zones[c.zi]
		if z.TrackLen < slotBlocks {
			c.zi++
			c.group, c.slot = 0, 0
			continue
		}
		firstTrack := 0
		if c.startVLBN > z.StartVLBN {
			off := c.startVLBN - z.StartVLBN
			firstTrack = int((off + int64(z.TrackLen) - 1) / int64(z.TrackLen))
		}
		nGroups := (z.Tracks - firstTrack) / groupTracks
		perGroup := z.TrackLen / slotBlocks
		if firstTrack >= z.Tracks || c.group >= nGroups {
			c.zi++
			c.group, c.slot = 0, 0
			continue
		}
		groupStart := z.StartVLBN + int64(firstTrack+c.group*groupTracks)*int64(z.TrackLen)
		p := cubePlace{
			base:      groupStart + int64(c.slot)*int64(slotBlocks),
			zoneStart: z.StartVLBN,
			trackLen:  z.TrackLen,
			diskIdx:   z.DiskIdx,
		}
		c.slot++
		if c.slot == perGroup {
			c.slot = 0
			c.group++
		}
		return p, groupStart + int64(groupTracks)*int64(z.TrackLen), true
	}
	return cubePlace{}, 0, false
}

// allocate places all cubes. With a pinned disk the cubes fill its
// zones in order; with DiskIdx -1 cubes are declustered round-robin
// across the member disks (§4.4), like stripe units in a traditional
// volume manager.
func (m *Mapping) allocate(zones []lvm.ZoneExtent, nCubes int, startVLBN int64) error {
	m.cubes = make([]cubePlace, 0, nCubes)
	// One cursor per disk present in the zone list.
	var order []int
	byDisk := map[int]*cubeCursor{}
	for _, z := range zones {
		c, ok := byDisk[z.DiskIdx]
		if !ok {
			c = &cubeCursor{spec: m.spec, cellBlocks: m.cellBlocks, startVLBN: startVLBN}
			byDisk[z.DiskIdx] = c
			order = append(order, z.DiskIdx)
		}
		c.zones = append(c.zones, z)
	}
	rr := 0
	exhausted := 0
	for len(m.cubes) < nCubes && exhausted < len(order) {
		cur := byDisk[order[rr%len(order)]]
		rr++
		p, groupEnd, ok := cur.next()
		if !ok {
			exhausted++
			continue
		}
		exhausted = 0
		m.cubes = append(m.cubes, p)
		if groupEnd > m.nextFree {
			m.nextFree = groupEnd
		}
	}
	if len(m.cubes) < nCubes {
		return fmt.Errorf("core: volume too small: placed %d of %d basic cubes", len(m.cubes), nCubes)
	}
	return nil
}

// buildChains materializes each cube's chain heads with one
// GetAdjacentK call per head, following Fig. 5: a step along Dimi jumps
// strides[i] adjacent blocks.
func (m *Mapping) buildChains() error {
	n := len(m.dims)
	inner := m.spec.Tracks() // number of chain heads per cube
	for ci := range m.cubes {
		cp := &m.cubes[ci]
		cp.heads = make([]int64, inner)
		cp.heads[0] = cp.base
		counter := make([]int, n) // counter[0] unused
		for idx := 1; idx < inner; idx++ {
			// Increment the mixed-radix counter over dims 1..N-1 and
			// note which digit moved.
			dim := 1
			for counter[dim]+1 == m.spec.K[dim] {
				counter[dim] = 0
				dim++
			}
			counter[dim]++
			stride := m.spec.strides[dim]
			// Hop from the last block of the previous cell so the
			// adjacency window opens right after its transfer ends. A
			// cell that runs past its track's end ends at the track's
			// start: hopping from the next track instead would shift this
			// chain off its neighbours' and onto a packed cube's cells.
			// A single-block cell ends where it starts, which spares the
			// paper's layouts two divisions per head.
			prev := cp.heads[idx-stride]
			if m.cellBlocks > 1 {
				trackStart, off, trackLen := cp.locate(idx-stride, 0, m.cellBlocks)
				prev = trackStart + (off+int64(m.cellBlocks-1))%trackLen
			}
			head, err := m.vol.GetAdjacentK(prev, stride)
			if err != nil {
				return fmt.Errorf("core: chain for cube %d head %d: %w", ci, idx, err)
			}
			cp.heads[idx] = head
		}
	}
	return nil
}

// Dims returns the dataset side lengths.
func (m *Mapping) Dims() []int { return m.dims }

// Spec returns the basic cube specification in use.
func (m *Mapping) Spec() *CubeSpec { return m.spec }

// NumCubes returns how many basic cubes the dataset occupies.
func (m *Mapping) NumCubes() int { return len(m.cubes) }

// CubesPerDim returns the cube-grid shape (ceil(Si/Ki) per §4.4).
func (m *Mapping) CubesPerDim() []int { return m.cubesPerDim }

// CubeDisk returns the disk index holding cube ci.
func (m *Mapping) CubeDisk(ci int) int { return m.cubes[ci].diskIdx }

// split locates a cell: the index of its basic cube, its Dim0 offset
// r0 within the cube, and the inner index of its chain head —
// sum(r_i * strides[i]), to which Dim0 adds nothing (strides[0] is 0).
func (m *Mapping) split(cell []int) (cubeIdx, r0, inner int, err error) {
	if len(cell) != len(m.dims) {
		return 0, 0, 0, fmt.Errorf("core: cell has %d dims, want %d", len(cell), len(m.dims))
	}
	for i, x := range cell {
		if x < 0 || x >= m.dims[i] {
			return 0, 0, 0, fmt.Errorf("core: coordinate %d = %d outside [0,%d)", i, x, m.dims[i])
		}
		cubeIdx += x / m.spec.K[i] * m.cubeStride[i]
		inner += x % m.spec.K[i] * m.spec.strides[i]
	}
	return cubeIdx, cell[0] % m.spec.K[0], inner, nil
}

// CellVLBN maps a cell coordinate to the volume LBN storing it.
func (m *Mapping) CellVLBN(cell []int) (int64, error) {
	ci, r0, inner, err := m.split(cell)
	if err != nil {
		return 0, err
	}
	trackStart, off, _ := m.cubes[ci].locate(inner, r0, m.cellBlocks)
	return trackStart + off, nil
}

// locate places the cell at Dim0 offset r0 on chain inner of the cube:
// the start of the chain head's track, the cell's first block as an
// offset on that track, and the track length. The cell lies r0 cells
// (of cellBlocks sectors each) past the head, wrapping at the track
// end: tracks are rotationally circular, so the wrapped successor is
// still transfer-adjacent.
func (cp *cubePlace) locate(inner, r0, cellBlocks int) (trackStart, off, trackLen int64) {
	head := cp.heads[inner]
	trackLen = int64(cp.trackLen)
	off = (head - cp.zoneStart) % trackLen
	return head - off, (off + int64(r0)*int64(cellBlocks)) % trackLen, trackLen
}

// CellBlocks returns the cell size in blocks.
func (m *Mapping) CellBlocks() int { return m.cellBlocks }

// CellExtents returns the LBN extents storing a cell: one request, or
// two when the cell wraps its circular track (the wrapped tail is
// rotationally contiguous with the head, so fetching both costs pure
// transfer). For single-block cells this is always one extent.
func (m *Mapping) CellExtents(cell []int) ([]lvm.Request, error) {
	ci, r0, inner, err := m.split(cell)
	if err != nil {
		return nil, err
	}
	trackStart, off, trackLen := m.cubes[ci].locate(inner, r0, m.cellBlocks)
	return appendRun(nil, trackStart, off, trackLen, int64(m.cellBlocks)), nil
}

// appendRun appends the requests reading blocks consecutive blocks of a
// track from offset off: one request, or two when the run wraps past
// the track end.
func appendRun(out []lvm.Request, trackStart, off, trackLen, blocks int64) []lvm.Request {
	seg := min(trackLen-off, blocks)
	out = append(out, lvm.Request{VLBN: trackStart + off, Count: int(seg)})
	if rest := blocks - seg; rest > 0 {
		out = append(out, lvm.Request{VLBN: trackStart, Count: int(rest)})
	}
	return out
}

// BoxRequests expands the box [lo,hi) into the ascending, coalesced
// requests that read it. Each Dim0 row of the box is one run per basic
// cube it crosses (two where a run wraps its track end), placed from
// the cube's chain head by offset arithmetic alone. The runs go into
// one slice sized from the row count, which is sorted in place only
// when they did not come out ascending and disjoint already.
func (m *Mapping) BoxRequests(lo, hi []int) ([]lvm.Request, error) {
	n := len(m.dims)
	if len(lo) != n || len(hi) != n {
		return nil, fmt.Errorf("core: box has %d and %d dims, want %d", len(lo), len(hi), n)
	}
	rows := 1
	for i, d := range m.dims {
		if lo[i] < 0 || hi[i] > d || lo[i] >= hi[i] {
			return nil, fmt.Errorf("core: bad box [%d,%d) on dimension %d of length %d", lo[i], hi[i], i, d)
		}
		if i > 0 {
			rows *= hi[i] - lo[i]
		}
	}
	k0 := m.spec.K[0]
	cubesPerRow := (hi[0]-1)/k0 - lo[0]/k0 + 1
	reqs := make([]lvm.Request, 0, 2*rows*cubesPerRow)
	// x steps the rows through dims >= 1, Dim1 fastest; x[0] is unused.
	var buf [8]int
	x := append(buf[:0], lo...)
	cb := int64(m.cellBlocks)
	for {
		cubeIdx, inner := 0, 0
		for i := 1; i < n; i++ {
			cubeIdx += x[i] / m.spec.K[i] * m.cubeStride[i]
			inner += x[i] % m.spec.K[i] * m.spec.strides[i]
		}
		// Dim0 is the cube grid's fastest dimension (cubeStride[0] is 1).
		for x0 := lo[0]; x0 < hi[0]; {
			r0 := x0 % k0
			cells := min(k0-r0, hi[0]-x0)
			trackStart, off, trackLen := m.cubes[cubeIdx+x0/k0].locate(inner, r0, m.cellBlocks)
			reqs = appendRun(reqs, trackStart, off, trackLen, int64(cells)*cb)
			x0 += cells
		}
		i := 1
		for ; i < n; i++ {
			if x[i]++; x[i] < hi[i] {
				break
			}
			x[i] = lo[i]
		}
		if i == n {
			break
		}
	}
	return lvm.SortCoalesce(reqs), nil
}

// Blocks returns the total number of blocks reserved by the mapping,
// including unfilled edge-cube space (§4.4).
func (m *Mapping) Blocks() int64 {
	return int64(len(m.cubes)) * m.spec.Cells() * int64(m.cellBlocks)
}

// NextFreeVLBN returns the first volume address past the last allocated
// cube group, where a subsequent mapping or extent may begin.
func (m *Mapping) NextFreeVLBN() int64 { return m.nextFree }

// SpanVLBN returns the half-open VLBN interval the mapping may touch:
// from the first track of the lowest allocated cube group to the first
// free VLBN past the last. The interval is conservative — it includes
// unfilled edge-cube space and allocation gaps — which is what overlap
// checks against other on-disk extents want.
func (m *Mapping) SpanVLBN() (start, end int64) {
	if len(m.cubes) == 0 {
		return 0, 0
	}
	start = m.cubes[0].base
	for _, cp := range m.cubes {
		t := int64(cp.trackLen)
		// Cells wrap circularly within their track, so the whole first
		// track of the cube's group counts as touched.
		ts := cp.zoneStart + (cp.base-cp.zoneStart)/t*t
		if ts < start {
			start = ts
		}
	}
	return start, m.nextFree
}

// SpanOnDisk refines SpanVLBN per member disk: the conservative VLBN
// interval the mapping may touch within disk di's segment, from the
// first track of its lowest cube group there to the end of its highest.
// start == end when no cube landed on that disk. Layers carving
// auxiliary per-disk extents (the update layer's overflow pages) use it
// so a tail extent on one disk is only checked against the cells
// actually placed on that disk — the global span would falsely collide
// for declustered datasets.
func (m *Mapping) SpanOnDisk(di int) (start, end int64) {
	groupTracks := int64(m.spec.Tracks())
	first := true
	for i := range m.cubes {
		cp := &m.cubes[i]
		if cp.diskIdx != di {
			continue
		}
		t := int64(cp.trackLen)
		// Cells wrap circularly within their tracks, so the cube's whole
		// group — groupTracks full tracks from the group's first track —
		// counts as touched. Every packing slot of a group starts on the
		// group's first track, so that track start is recoverable from
		// the cube base alone.
		ts := cp.zoneStart + (cp.base-cp.zoneStart)/t*t
		te := ts + groupTracks*t
		if first || ts < start {
			start = ts
		}
		if first || te > end {
			end = te
		}
		first = false
	}
	if first {
		return 0, 0
	}
	return start, end
}

// Package pool is the placement layer for multi-tenant volumes: a pool
// of simulated drives hosting many datasets on thin-provisioned
// volumes. Where the classic lvm.New path gives a dataset whole drives
// for life, the pool carves track-aligned extents out of shared drives
// and hands back lvm volumes with a full lifecycle:
//
//   - NewVolume allocates a thin volume (lvcreate),
//   - Vol.Grow extends it online (lvextend) — capacity appears
//     mid-flight without reopening anything,
//   - Vol.Snapshot freezes the current extents copy-on-write,
//   - Snap.Clone builds a new volume over the frozen extents whose
//     reads fall through to the shared blocks until a track is dirtied,
//   - Vol.Free / Snap.Free release references; extents return to the
//     free lists when the last referencing volume or snapshot is gone.
//
// Allocation is first-fit in drive preference order at track granule,
// and every extent lies within a single geometry zone, so track and
// zone arithmetic inside a segment is exact (see lvm.NewFromExtents).
// Space is reclaimed at extent granularity only — a volume keeps its
// reference on a shared extent even after copy-on-write has resolved
// every track it maps there, the usual thin-pool accounting trade.
//
// All pool and volume bookkeeping is guarded by the pool mutex; the
// returned lvm volumes follow the lvm package's own concurrency
// contract (shared drives serialize head state per drive).
package pool

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// zinfo caches one geometry zone's shape for the allocator.
type zinfo struct {
	startLBN int64
	tl       int // blocks per track
	nTracks  int
}

// run is a contiguous range of free tracks within one zone.
type run struct {
	zi    int
	start int // first free track, zone-local
	n     int // tracks
}

// drive is one pooled drive with its free-track accounting.
type drive struct {
	dr    *lvm.Drive
	zones []zinfo
	free  []run // ascending (zi, start)
	total int64 // blocks
	auto  int64 // blocks of live extents an auto-grow carved
}

// pext is one allocated pool extent, the refcounted unit of space. It
// is freed back to its drive when the last volume or snapshot
// referencing it is released.
type pext struct {
	di    int
	zi    int
	start int // first track, zone-local
	n     int // tracks
	tl    int
	refs  int
	auto  bool // carved by an auto-grow
}

func (e *pext) blocks() int64 { return int64(e.n) * int64(e.tl) }

// Pool is a set of simulated drives that volumes are carved from.
type Pool struct {
	mu       sync.Mutex
	adjDepth int
	drives   []*drive
}

// New builds a pool over fresh drives of the given geometries. adjDepth
// is the adjacency depth every pool volume exports (0 for
// lvm.DefaultAdjacencyDepth); it must fit every drive's settle span.
func New(adjDepth int, geoms ...*disk.Geometry) (*Pool, error) {
	if len(geoms) == 0 {
		return nil, fmt.Errorf("pool: needs at least one drive")
	}
	if adjDepth == 0 {
		adjDepth = lvm.DefaultAdjacencyDepth
	}
	if adjDepth < 1 {
		return nil, fmt.Errorf("pool: adjacency depth %d must be positive", adjDepth)
	}
	p := &Pool{adjDepth: adjDepth}
	for _, g := range geoms {
		if span := g.AdjSpan(); adjDepth > span {
			return nil, fmt.Errorf("pool: adjacency depth %d exceeds %s settle span %d",
				adjDepth, g.Name, span)
		}
		d := &drive{dr: lvm.NewDrive(g), total: g.TotalBlocks()}
		for zi := 0; zi < g.NumZones(); zi++ {
			z := g.ZoneByIndex(zi)
			n := z.Cylinders() * g.Surfaces
			d.zones = append(d.zones, zinfo{startLBN: z.StartLBN(), tl: z.SectorsPerTrack, nTracks: n})
			d.free = append(d.free, run{zi: zi, start: 0, n: n})
		}
		p.drives = append(p.drives, d)
	}
	return p, nil
}

// NumDrives returns the number of pooled drives.
func (p *Pool) NumDrives() int { return len(p.drives) }

// DriveUsage is one drive's space accounting. AutoGrownBlocks counts
// the allocated blocks that auto-grows carved, whoever still references
// them.
type DriveUsage struct {
	Name            string
	TotalBlocks     int64
	FreeBlocks      int64
	AutoGrownBlocks int64
}

// Usage returns per-drive space accounting.
func (p *Pool) Usage() []DriveUsage {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]DriveUsage, len(p.drives))
	for i, d := range p.drives {
		var free int64
		for _, r := range d.free {
			free += int64(r.n) * int64(d.zones[r.zi].tl)
		}
		out[i] = DriveUsage{Name: d.dr.Geometry().Name, TotalBlocks: d.total, FreeBlocks: free, AutoGrownBlocks: d.auto}
	}
	return out
}

// order resolves a drive preference list: the given indices in order,
// or every drive in index order when nil.
func (p *Pool) order(prefer []int) ([]int, error) {
	if len(prefer) == 0 {
		out := make([]int, len(p.drives))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	for _, di := range prefer {
		if di < 0 || di >= len(p.drives) {
			return nil, fmt.Errorf("pool: drive index %d out of range [0,%d)", di, len(p.drives))
		}
	}
	return prefer, nil
}

// alloc carves at least blocks blocks as track-aligned, single-zone
// extents, first-fit across the preference order. Caller holds p.mu.
func (p *Pool) alloc(blocks int64, prefer []int) ([]*pext, []lvm.Extent, error) {
	if blocks <= 0 {
		return nil, nil, fmt.Errorf("pool: allocation must be positive, got %d blocks", blocks)
	}
	order, err := p.order(prefer)
	if err != nil {
		return nil, nil, err
	}
	var pes []*pext
	var exts []lvm.Extent
	need := blocks
	for _, di := range order {
		d := p.drives[di]
		ri := 0
		for ri < len(d.free) && need > 0 {
			r := d.free[ri]
			tl := d.zones[r.zi].tl
			want := int((need + int64(tl) - 1) / int64(tl))
			t := min(want, r.n)
			pe := &pext{di: di, zi: r.zi, start: r.start, n: t, tl: tl, refs: 1}
			pes = append(pes, pe)
			exts = append(exts, p.extentOf(pe))
			need -= pe.blocks()
			if t == r.n {
				d.free = append(d.free[:ri], d.free[ri+1:]...)
			} else {
				d.free[ri].start += t
				d.free[ri].n -= t
				ri++
			}
		}
		if need <= 0 {
			break
		}
	}
	if need > 0 {
		for _, pe := range pes {
			p.release(pe)
		}
		return nil, nil, fmt.Errorf("pool: out of space: %d of %d blocks unallocatable on drives %v",
			need, blocks, order)
	}
	return pes, exts, nil
}

// allocContig carves one contiguous extent of at least blocks blocks in
// a zone whose track length is exactly tl, preferring the given drive —
// the COW fault allocator. Caller holds p.mu.
func (p *Pool) allocContig(prefer *lvm.Drive, tl int, blocks int64) (*pext, error) {
	tracks := int((blocks + int64(tl) - 1) / int64(tl))
	try := func(di int) *pext {
		d := p.drives[di]
		for ri, r := range d.free {
			if d.zones[r.zi].tl != tl || r.n < tracks {
				continue
			}
			pe := &pext{di: di, zi: r.zi, start: r.start, n: tracks, tl: tl, refs: 1}
			if tracks == r.n {
				d.free = append(d.free[:ri], d.free[ri+1:]...)
			} else {
				d.free[ri].start += tracks
				d.free[ri].n -= tracks
			}
			return pe
		}
		return nil
	}
	for di, d := range p.drives {
		if d.dr == prefer {
			if pe := try(di); pe != nil {
				return pe, nil
			}
		}
	}
	for di, d := range p.drives {
		if d.dr == prefer {
			continue
		}
		if pe := try(di); pe != nil {
			return pe, nil
		}
	}
	return nil, fmt.Errorf("pool: no contiguous run of %d tracks (track length %d) on any drive",
		tracks, tl)
}

func (p *Pool) extentOf(pe *pext) lvm.Extent {
	d := p.drives[pe.di]
	return lvm.Extent{
		Drive:     d.dr,
		PhysStart: d.zones[pe.zi].startLBN + int64(pe.start)*int64(pe.tl),
		Blocks:    pe.blocks(),
	}
}

// release drops one reference; the extent's tracks return to the free
// list (merging with neighbors) when nobody references it anymore.
// Caller holds p.mu.
func (p *Pool) release(pe *pext) {
	pe.refs--
	if pe.refs > 0 {
		return
	}
	d := p.drives[pe.di]
	if pe.auto {
		d.auto -= pe.blocks()
	}
	nr := run{zi: pe.zi, start: pe.start, n: pe.n}
	i := sort.Search(len(d.free), func(i int) bool {
		if d.free[i].zi != nr.zi {
			return d.free[i].zi > nr.zi
		}
		return d.free[i].start > nr.start
	})
	d.free = append(d.free, run{})
	copy(d.free[i+1:], d.free[i:])
	d.free[i] = nr
	if i+1 < len(d.free) && d.free[i+1].zi == nr.zi && nr.start+nr.n == d.free[i+1].start {
		d.free[i].n += d.free[i+1].n
		d.free = append(d.free[:i+1], d.free[i+2:]...)
	}
	if i > 0 && d.free[i-1].zi == d.free[i].zi && d.free[i-1].start+d.free[i-1].n == d.free[i].start {
		d.free[i-1].n += d.free[i].n
		d.free = append(d.free[:i], d.free[i+1:]...)
	}
}

// Vol is the pool's bookkeeping for one allocated volume: the lvm
// volume plus every pool extent it references. Fields are guarded by
// the pool mutex.
type Vol struct {
	p     *Pool
	vol   *lvm.Volume
	refs  []*pext
	freed bool
}

// Volume returns the thin-provisioned lvm volume.
func (v *Vol) Volume() *lvm.Volume { return v.vol }

// Blocks returns the pool space the volume references, in blocks —
// thin-pool accounting: initial allocation, growth, and private COW
// extents, plus shared parent extents a clone still references.
func (v *Vol) Blocks() int64 {
	v.p.mu.Lock()
	defer v.p.mu.Unlock()
	var n int64
	for _, pe := range v.refs {
		n += pe.blocks()
	}
	return n
}

// NewVolume allocates a thin volume of at least blocks blocks (rounded
// up to whole tracks), placing extents first-fit across the preferred
// drive indices (nil: every drive in order). The volume's COW allocator
// is installed so later snapshot/clone faults allocate from this pool
// and are charged to this volume.
func (p *Pool) NewVolume(blocks int64, prefer []int) (*Vol, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pes, exts, err := p.alloc(blocks, prefer)
	if err != nil {
		return nil, err
	}
	lv, err := lvm.NewFromExtents(p.adjDepth, exts)
	if err != nil {
		for _, pe := range pes {
			p.release(pe)
		}
		return nil, err
	}
	v := &Vol{p: p, vol: lv, refs: pes}
	lv.SetCowAlloc(v.cowAlloc)
	return v, nil
}

// Grow extends the volume online by at least blocks blocks — lvextend:
// the new extents append to the VLBN space atomically while traffic is
// in flight, and existing segment indices and addresses are unchanged.
// auto marks the growth as an auto-grow's, which Usage counts per drive
// until its extents are released.
func (v *Vol) Grow(blocks int64, prefer []int, auto bool) error {
	p := v.p
	p.mu.Lock()
	if v.freed {
		p.mu.Unlock()
		return fmt.Errorf("pool: volume already freed")
	}
	pes, exts, err := p.alloc(blocks, prefer)
	if err != nil {
		p.mu.Unlock()
		return err
	}
	for _, pe := range pes {
		if pe.auto = auto; auto {
			p.drives[pe.di].auto += pe.blocks()
		}
	}
	v.refs = append(v.refs, pes...)
	p.mu.Unlock()
	if err := v.vol.Extend(exts); err != nil {
		p.mu.Lock()
		v.refs = v.refs[:len(v.refs)-len(pes)]
		for _, pe := range pes {
			p.release(pe)
		}
		p.mu.Unlock()
		return err
	}
	return nil
}

// cowAlloc is the lvm.CowAllocFunc for this volume: carve a private
// replacement extent and charge it to the volume's accounting.
func (v *Vol) cowAlloc(prefer *lvm.Drive, tl int, blocks int64) (*lvm.Drive, int64, error) {
	p := v.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.freed {
		return nil, 0, fmt.Errorf("pool: volume already freed")
	}
	pe, err := p.allocContig(prefer, tl, blocks)
	if err != nil {
		return nil, 0, err
	}
	v.refs = append(v.refs, pe)
	d := p.drives[pe.di]
	return d.dr, d.zones[pe.zi].startLBN + int64(pe.start)*int64(pe.tl), nil
}

// Snap is a frozen copy-on-write view of a volume's extents at
// snapshot time. It holds its own references: the frozen extents stay
// allocated until the snapshot and every clone built from it are freed,
// regardless of what happens to the origin volume.
type Snap struct {
	p     *Pool
	exts  []lvm.Extent
	refs  []*pext
	freed bool
}

// Snapshot freezes the volume's current extent table. The origin keeps
// serving, but its segments are flipped copy-on-write: its next write
// to any frozen track faults that track into a private extent, leaving
// the snapshot's view intact. Callers must quiesce dirty write-back
// state first (the engine layer flushes before snapshotting) so the
// frozen extents hold no un-issued writes.
func (v *Vol) Snapshot() (*Snap, error) {
	p := v.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.freed {
		return nil, fmt.Errorf("pool: volume already freed")
	}
	exts := v.vol.Extents()
	for i := range exts {
		exts[i].COW = true
	}
	refs := append([]*pext(nil), v.refs...)
	for _, pe := range refs {
		pe.refs++
	}
	v.vol.MarkCOW()
	return &Snap{p: p, exts: exts, refs: refs}, nil
}

// Clone builds a new thin volume over the snapshot's frozen extents.
// Every segment starts copy-on-write: reads fall through to the shared
// parent blocks, and the clone's first write to a track faults it into
// a private extent charged to the clone.
func (s *Snap) Clone() (*Vol, error) {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.freed {
		return nil, fmt.Errorf("pool: snapshot already freed")
	}
	lv, err := lvm.NewFromExtents(p.adjDepth, s.exts)
	if err != nil {
		return nil, err
	}
	refs := append([]*pext(nil), s.refs...)
	for _, pe := range refs {
		pe.refs++
	}
	v := &Vol{p: p, vol: lv, refs: refs}
	lv.SetCowAlloc(v.cowAlloc)
	return v, nil
}

// Free releases the volume's references. Safe to call twice.
func (v *Vol) Free() {
	p := v.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.freed {
		return
	}
	v.freed = true
	for _, pe := range v.refs {
		p.release(pe)
	}
	v.refs = nil
}

// Free releases the snapshot's references. Safe to call twice. Clones
// built from the snapshot hold their own references and stay valid.
func (s *Snap) Free() {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.freed {
		return
	}
	s.freed = true
	for _, pe := range s.refs {
		p.release(pe)
	}
	s.refs = nil
}

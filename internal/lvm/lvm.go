// Package lvm implements the logical volume manager of the paper's
// prototype (§5.1): it exports a single logical block address space over
// one or more simulated drives and exposes the adjacency model to
// applications through GetAdjacent and GetTrackBoundaries, without
// revealing disk-specific details.
//
// A Volume is an ordered list of segments, each a contiguous run of
// physical blocks on one Drive. Volume LBNs (VLBNs) are the
// concatenation of the segments' block ranges. The classic constructor
// New gives a volume exactly one whole-drive segment per geometry — the
// paper's configuration, where a dataset owns its drives for life. Pool
// volumes (internal/pool) instead map thin-provisioned, growable,
// possibly copy-on-write extents carved out of shared drives; the
// segment machinery is invisible to them both: every exported query
// speaks (segment index, VLBN), and for classic volumes segment index
// and drive index coincide, so the paper path is bit-identical.
//
// Chunk-grain declustering (§4.4) is the mapping's job: core.Mapping
// places its basic cubes round-robin across the member disks. All
// adjacency relations stay within a single segment, as they must:
// adjacency is a property of one arm and one platter stack, and a
// pooled extent's neighbors may belong to another tenant.
//
// # Concurrency contract
//
// The segment table is an immutable snapshot behind an atomic pointer:
// geometry queries (Locate, GetAdjacent, GetTrackBoundaries, Zones, ...)
// are read-only and safe for any number of goroutines, even while the
// volume is being grown. Structural mutators — Extend, MarkCOW,
// ResolveCOW — serialize on an internal mutex and publish a fresh
// snapshot; growth is append-only, so segment indices and the VLBNs of
// existing blocks never change under a reader's feet (ResolveCOW is the
// one exception: it splits segments and renumbers indices, and only the
// owning service loop calls it, between batches).
//
// Head-state mutators — ServeBatch and direct Disk access such
// as RandomizePosition — take each Drive's own mutex, because pooled
// drives are shared between tenants' service loops. Within one volume
// the owner rule of the paper path still holds: the per-volume
// engine.Service loop goroutine (or a tool driving a volume nothing
// else touches, as mmtrace does) issues every batch, and ServeBatch's
// own per-drive goroutines touch each drive only under its lock.
//
// The same ownership rule covers the service's extent cache over this
// volume's blocks: only the service loop may insert or invalidate
// cache entries. Writes reach the drives exclusively as service write
// ops, which invalidate every cached extent overlapping the mutated
// block ranges before the write's cost is charged. Cache entries are
// keyed by VLBN, which is stable across Extend and ResolveCOW — only
// the physical mapping moves, never the logical address.
package lvm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/disk"
)

// DefaultAdjacencyDepth is the paper's evaluation setting (§5.3): both
// drives are configured with D = 128 adjacent blocks per LBN.
const DefaultAdjacencyDepth = 128

// Request is a contiguous read of Count blocks at a volume LBN.
type Request struct {
	VLBN  int64
	Count int
}

// Coalesce sorts requests by VLBN (then length) in place and merges
// each with its predecessor when the gap between them is at most
// maxGap blocks — the storage manager's issue optimization (§5.2). It
// returns the merged requests and the padding blocks the merges read
// beyond the originals; at maxGap 0 only contiguous requests merge and
// the padding is 0. The sort is skipped when every request already
// begins at or past its predecessor's end, where sorting would leave
// them as they are.
func Coalesce(reqs []Request, maxGap int) ([]Request, int64) {
	if len(reqs) <= 1 {
		return reqs, 0
	}
	for i := 1; i < len(reqs); i++ {
		if prev := reqs[i-1]; reqs[i].VLBN < prev.VLBN+int64(prev.Count) {
			slices.SortFunc(reqs, func(a, b Request) int {
				if c := cmp.Compare(a.VLBN, b.VLBN); c != 0 {
					return c
				}
				return a.Count - b.Count
			})
			break
		}
	}
	var padding int64
	out := reqs[:1]
	for _, r := range reqs[1:] {
		last := &out[len(out)-1]
		if gap := r.VLBN - (last.VLBN + int64(last.Count)); gap >= 0 && gap <= int64(maxGap) {
			padding += gap
			last.Count += int(gap) + r.Count
		} else {
			out = append(out, r)
		}
	}
	return out, padding
}

// Completion records one serviced request and the segment that served
// it (for classic volumes, the segment index is the disk index).
type Completion struct {
	Req      Request
	DiskIdx  int
	Cost     disk.AccessCost
	FinishMs float64
}

// Drive is one physical simulated drive. Classic volumes built with New
// own their drives outright; pool volumes share drives, with extents of
// many tenants carved from one drive. The mutex serializes head-state
// mutation across every volume mapped onto the drive — within one
// volume the service loop is the single owner, but two tenants' service
// loops may reach the same pooled drive concurrently.
type Drive struct {
	mu sync.Mutex
	d  *disk.Disk
}

// NewDrive wraps a fresh simulated disk of the given geometry.
func NewDrive(g *disk.Geometry) *Drive { return &Drive{d: disk.New(g)} }

// Geometry returns the drive's immutable geometry.
func (dr *Drive) Geometry() *disk.Geometry { return dr.d.Geometry() }

// Extent is one contiguous run of physical blocks on a drive — the unit
// a pool allocates and a volume maps as a segment. A COW extent is a
// read-only view of blocks owned by a snapshot or parent volume: reads
// fall through to the shared physical blocks, and the first write to
// any track faults that track into a privately allocated extent (see
// CowSpans and ResolveCOW).
type Extent struct {
	Drive     *Drive
	PhysStart int64
	Blocks    int64
	COW       bool
}

// CowAllocFunc allocates a private replacement extent for one faulted
// COW span: blocks blocks with the given track length, preferring (but
// not required to use) the drive currently backing the span. The pool
// installs one per volume via SetCowAlloc and records the allocation
// against the tenant's space accounting as a side effect.
type CowAllocFunc func(prefer *Drive, trackLen int, blocks int64) (*Drive, int64, error)

// segment is one mapped extent with its position in the VLBN space.
type segment struct {
	drive     *Drive
	physStart int64
	blocks    int64
	startVLBN int64
	cow       bool
}

func (s *segment) physEnd() int64 { return s.physStart + s.blocks }
func (s *segment) endVLBN() int64 { return s.startVLBN + s.blocks }

// segSet is one immutable snapshot of a volume's segment table, with
// the per-drive indices ServeBatch needs to group and back-map I/O.
type segSet struct {
	segs     []segment
	total    int64
	hasCow   bool
	drives   []*Drive // distinct drives, first-appearance order
	driveIdx map[*Drive]int
	byDrive  [][]int // per drive: segment indices sorted by physStart
}

func buildSegSet(segs []segment) *segSet {
	ss := &segSet{segs: segs, driveIdx: make(map[*Drive]int)}
	for i := range segs {
		s := &segs[i]
		ss.total += s.blocks
		if s.cow {
			ss.hasCow = true
		}
		k, ok := ss.driveIdx[s.drive]
		if !ok {
			k = len(ss.drives)
			ss.driveIdx[s.drive] = k
			ss.drives = append(ss.drives, s.drive)
			ss.byDrive = append(ss.byDrive, nil)
		}
		ss.byDrive[k] = append(ss.byDrive[k], i)
	}
	for _, idxs := range ss.byDrive {
		sort.Slice(idxs, func(a, b int) bool {
			return segs[idxs[a]].physStart < segs[idxs[b]].physStart
		})
	}
	return ss
}

func (ss *segSet) locate(vlbn int64) (int, int64, error) {
	if vlbn < 0 || vlbn >= ss.total {
		return 0, 0, fmt.Errorf("lvm: VLBN %d out of range [0,%d)", vlbn, ss.total)
	}
	i := sort.Search(len(ss.segs), func(i int) bool { return ss.segs[i].startVLBN > vlbn }) - 1
	return i, vlbn - ss.segs[i].startVLBN, nil
}

// segOnDrive maps a physical LBN served on drive k back to its segment.
// A volume's segments are physically disjoint, so it is unique.
func (ss *segSet) segOnDrive(k int, phys int64) int {
	idxs := ss.byDrive[k]
	j := sort.Search(len(idxs), func(j int) bool { return ss.segs[idxs[j]].physStart > phys }) - 1
	return idxs[j]
}

// Volume is a logical volume over one or more simulated drives.
type Volume struct {
	set      atomic.Pointer[segSet]
	adjDepth int

	// mu serializes structural mutation — Extend, MarkCOW, ResolveCOW —
	// against each other (a pool Grow goroutine racing the service
	// loop's COW commit). Readers never take it: they work on the
	// atomic snapshot loaded at call entry.
	mu       sync.Mutex
	cowAlloc CowAllocFunc

	// scratch is ServeBatch's routing state and its completions, reused
	// call after call so the serve hot path is allocation-free in steady
	// state. One is enough: ServeBatch is serialized per volume, and
	// tenants sharing a pooled drive each have their own volume, so
	// their completions never share a buffer.
	scratch serveScratch
}

// keepBatch bounds the batches whose completion buffers a volume keeps
// for the next ServeBatch: a longer one (a write-back group commit
// issues thousands of requests) allocates its own, as the drive does
// for its SPTF index past the same size, and nothing pins it.
const keepBatch = 256

// serveScratch is one ServeBatch call's reusable routing state, the
// per-drive completion buffers handed to each Disk.ServeBatch, and the
// volume-level completions ServeBatch returns.
type serveScratch struct {
	counts   []int
	routed   []disk.Request
	onDrive  []int
	perDrive [][]disk.Request
	comps    [][]disk.Completion
	errs     []error
	busyMs   []float64
	out      []Completion
}

// size readies the scratch for nd drives and nr requests, reusing
// every backing array (including the per-drive sub-batch and
// completion buffers, which keep their capacity across calls).
func (sc *serveScratch) size(nd, nr int) {
	if cap(sc.counts) < nd {
		sc.counts = make([]int, nd)
		sc.perDrive = make([][]disk.Request, nd)
		sc.comps = make([][]disk.Completion, nd)
		sc.errs = make([]error, nd)
		sc.busyMs = make([]float64, nd)
	} else {
		sc.counts = sc.counts[:nd]
		clear(sc.counts)
		sc.perDrive = sc.perDrive[:nd]
		sc.comps = sc.comps[:nd]
		sc.errs = sc.errs[:nd]
		clear(sc.errs)
		sc.busyMs = sc.busyMs[:nd]
		clear(sc.busyMs)
	}
	for k := range sc.perDrive {
		sc.perDrive[k] = sc.perDrive[k][:0]
		sc.comps[k] = sc.comps[k][:0]
	}
	if cap(sc.routed) < nr {
		sc.routed = make([]disk.Request, nr)
		sc.onDrive = make([]int, nr)
	} else {
		sc.routed = sc.routed[:nr]
		sc.onDrive = sc.onDrive[:nr]
	}
}

// serve runs drive k's sub-batch under the drive's mutex, appending its
// completions to the volume's own buffer for that drive.
func (sc *serveScratch) serve(ss *segSet, k int, policy disk.SchedPolicy) {
	dr := ss.drives[k]
	dr.mu.Lock()
	start := dr.d.NowMs()
	sc.comps[k], sc.errs[k] = dr.d.ServeBatch(sc.comps[k], sc.perDrive[k], policy)
	sc.busyMs[k] = dr.d.NowMs() - start
	dr.mu.Unlock()
}

// release drops every completion buffer that grew past keepBatch.
func (sc *serveScratch) release() {
	for k := range sc.comps {
		if cap(sc.comps[k]) > keepBatch {
			sc.comps[k] = nil
		}
	}
	if cap(sc.out) > keepBatch {
		sc.out = nil
	}
}

// New builds a volume from disk geometries. Each geometry gets its own
// fresh simulated drive, fully owned by the volume as one whole-drive
// segment — the paper's configuration. adjDepth is the exported
// adjacency depth D; pass 0 for DefaultAdjacencyDepth. The depth is
// capped by every member drive's settle range.
func New(adjDepth int, geoms ...*disk.Geometry) (*Volume, error) {
	if len(geoms) == 0 {
		return nil, fmt.Errorf("lvm: volume needs at least one disk")
	}
	exts := make([]Extent, len(geoms))
	for i, g := range geoms {
		exts[i] = Extent{Drive: NewDrive(g), Blocks: g.TotalBlocks()}
	}
	return NewFromExtents(adjDepth, exts)
}

// NewFromExtents builds a volume whose VLBN space is the concatenation
// of the given extents, in order. This is the pool constructor: extents
// reference shared drives and may start anywhere on them. Pool callers
// keep extents track-aligned and within a single geometry zone so that
// track and zone arithmetic (GetTrackBoundaries, Zones) is exact inside
// every segment; New's whole-drive extents satisfy this trivially.
func NewFromExtents(adjDepth int, extents []Extent) (*Volume, error) {
	if len(extents) == 0 {
		return nil, fmt.Errorf("lvm: volume needs at least one extent")
	}
	if adjDepth == 0 {
		adjDepth = DefaultAdjacencyDepth
	}
	if adjDepth < 1 {
		return nil, fmt.Errorf("lvm: adjacency depth %d must be positive", adjDepth)
	}
	segs := make([]segment, 0, len(extents))
	var off int64
	for _, e := range extents {
		if err := checkExtent(e, adjDepth); err != nil {
			return nil, err
		}
		segs = append(segs, segment{
			drive:     e.Drive,
			physStart: e.PhysStart,
			blocks:    e.Blocks,
			startVLBN: off,
			cow:       e.COW,
		})
		off += e.Blocks
	}
	v := &Volume{adjDepth: adjDepth}
	v.set.Store(buildSegSet(segs))
	return v, nil
}

func checkExtent(e Extent, adjDepth int) error {
	if e.Drive == nil {
		return fmt.Errorf("lvm: extent has no drive")
	}
	g := e.Drive.Geometry()
	if span := g.AdjSpan(); adjDepth > span {
		return fmt.Errorf("lvm: adjacency depth %d exceeds %s settle span %d",
			adjDepth, g.Name, span)
	}
	if e.Blocks <= 0 {
		return fmt.Errorf("lvm: extent size must be positive, got %d blocks", e.Blocks)
	}
	if e.PhysStart < 0 || e.PhysStart+e.Blocks > g.TotalBlocks() {
		return fmt.Errorf("lvm: extent [%d,+%d) exceeds %s capacity %d",
			e.PhysStart, e.Blocks, g.Name, g.TotalBlocks())
	}
	return nil
}

// NewLike builds a fresh volume mirroring v's hardware: one fresh
// whole drive per segment, with the segments' geometries in order, the
// same adjacency depth, and pristine head state. Sharded stores use it
// to spawn per-shard volumes identical to a drive-owning primary; pool
// tenants allocate shard volumes through the pool instead. Geometries
// are immutable and safely shared between the volumes.
func NewLike(v *Volume) *Volume {
	ss := v.set.Load()
	geoms := make([]*disk.Geometry, len(ss.segs))
	for i := range ss.segs {
		geoms[i] = ss.segs[i].drive.Geometry()
	}
	// New validated these exact inputs when v was built, so it cannot
	// fail here.
	nv, err := New(v.adjDepth, geoms...)
	if err != nil {
		panic(fmt.Sprintf("lvm: NewLike on a valid volume failed: %v", err))
	}
	return nv
}

// AdjacencyDepth returns the exported D: how many adjacent blocks each
// VLBN has (fewer only near the end of a segment).
func (v *Volume) AdjacencyDepth() int { return v.adjDepth }

// NumDisks returns the number of segments the volume presents as member
// disks (for classic volumes, exactly the member drives).
func (v *Volume) NumDisks() int { return len(v.set.Load().segs) }

// Disk returns the drive backing segment i (for statistics and
// inspection). Distinct segments of a pool volume may share a drive.
func (v *Volume) Disk(i int) *disk.Disk { return v.set.Load().segs[i].drive.d }

// TotalBlocks returns the volume capacity in blocks.
func (v *Volume) TotalBlocks() int64 { return v.set.Load().total }

// Locate resolves a VLBN to (segment index, segment-local LBN).
func (v *Volume) Locate(vlbn int64) (diskIdx int, lbn int64, err error) {
	return v.set.Load().locate(vlbn)
}

// DiskStart returns the first VLBN of segment i.
func (v *Volume) DiskStart(diskIdx int) int64 {
	return v.set.Load().segs[diskIdx].startVLBN
}

// DiskBlocks returns the capacity, in blocks, of segment i.
func (v *Volume) DiskBlocks(diskIdx int) int64 {
	return v.set.Load().segs[diskIdx].blocks
}

// GetAdjacent returns up to d adjacent blocks of vlbn (d <= D), the
// interface call of §3.2. Adjacency never crosses segments; near the
// edges of a segment the list is shorter (a pooled extent's physical
// neighbors may belong to another tenant and are not reachable).
func (v *Volume) GetAdjacent(vlbn int64, d int) ([]int64, error) {
	if d < 1 || d > v.adjDepth {
		return nil, fmt.Errorf("lvm: requested depth %d out of [1,%d]", d, v.adjDepth)
	}
	ss := v.set.Load()
	si, off, err := ss.locate(vlbn)
	if err != nil {
		return nil, err
	}
	seg := &ss.segs[si]
	adjs, err := seg.drive.Geometry().Adjacent(seg.physStart+off, d)
	if err != nil {
		return nil, err
	}
	out := make([]int64, 0, len(adjs))
	for _, a := range adjs {
		if a < seg.physStart || a >= seg.physEnd() {
			continue
		}
		out = append(out, seg.startVLBN+(a-seg.physStart))
	}
	return out, nil
}

// GetAdjacentK returns the k-th adjacent block of vlbn (1 <= k <= D).
func (v *Volume) GetAdjacentK(vlbn int64, k int) (int64, error) {
	if k < 1 || k > v.adjDepth {
		return 0, fmt.Errorf("lvm: adjacency index %d out of [1,%d]", k, v.adjDepth)
	}
	ss := v.set.Load()
	si, off, err := ss.locate(vlbn)
	if err != nil {
		return 0, err
	}
	seg := &ss.segs[si]
	a, err := seg.drive.Geometry().AdjacentBlock(seg.physStart+off, k)
	if err != nil {
		return 0, err
	}
	if a < seg.physStart || a >= seg.physEnd() {
		return 0, fmt.Errorf("lvm: adjacent %d of VLBN %d falls outside its extent", k, vlbn)
	}
	return seg.startVLBN + (a - seg.physStart), nil
}

// GetTrackBoundaries returns the half-open VLBN interval of the track
// containing vlbn, the second interface call of §3.2, clipped to the
// containing segment (pool extents are track-aligned, so the clip only
// matters for defensive callers).
func (v *Volume) GetTrackBoundaries(vlbn int64) (start, next int64, err error) {
	ss := v.set.Load()
	si, off, err := ss.locate(vlbn)
	if err != nil {
		return 0, 0, err
	}
	seg := &ss.segs[si]
	s, n, err := seg.drive.Geometry().TrackBoundaries(seg.physStart + off)
	if err != nil {
		return 0, 0, err
	}
	if s < seg.physStart {
		s = seg.physStart
	}
	if n > seg.physEnd() {
		n = seg.physEnd()
	}
	return seg.startVLBN + (s - seg.physStart), seg.startVLBN + (n - seg.physStart), nil
}

// ZoneExtent describes a run of same-track-length blocks in one
// segment, in volume coordinates. MultiMap sizes basic cubes per zone
// and never maps a cube across a zone boundary.
type ZoneExtent struct {
	DiskIdx   int
	StartVLBN int64
	Blocks    int64
	TrackLen  int
	Tracks    int
}

// Zones enumerates the zone extents of every segment in VLBN order:
// each geometry zone intersected with the segment's physical range.
// For classic whole-drive volumes this is exactly the member disks'
// zone lists; a pool segment lies within a single zone and yields one
// extent.
func (v *Volume) Zones() []ZoneExtent {
	ss := v.set.Load()
	var out []ZoneExtent
	for si := range ss.segs {
		seg := &ss.segs[si]
		g := seg.drive.Geometry()
		for zi := 0; zi < g.NumZones(); zi++ {
			z := g.ZoneByIndex(zi)
			nTracks := z.Cylinders() * g.Surfaces
			zStart := z.StartLBN()
			zEnd := zStart + int64(nTracks)*int64(z.SectorsPerTrack)
			lo := max(zStart, seg.physStart)
			hi := min(zEnd, seg.physEnd())
			if lo >= hi {
				continue
			}
			blocks := hi - lo
			out = append(out, ZoneExtent{
				DiskIdx:   si,
				StartVLBN: seg.startVLBN + (lo - seg.physStart),
				Blocks:    blocks,
				TrackLen:  z.SectorsPerTrack,
				Tracks:    int(blocks / int64(z.SectorsPerTrack)),
			})
		}
	}
	return out
}

// ServeBatch routes requests to their segments and services each busy
// drive's sub-batch — every segment of this volume on that drive in one
// scheduler pass, so SPTF sees the drive's whole physical workload —
// with the given policy. Drives are serviced concurrently, one
// goroutine per busy drive, each under its Drive mutex, so the
// simulated elapsed time (the maximum over the drives' busy intervals)
// is also how the work is actually performed, even when other tenants
// share the drives. Completions are returned grouped by drive in
// first-use order (for classic volumes: disk order), in per-drive
// service order, each tagged with its segment index.
//
// The returned completions live in the volume's scratch: they are valid
// until the next ServeBatch on this volume, which reuses the buffer. A
// caller that keeps them longer copies them first. The service loop and
// mmtrace read them before their next call.
//
// ServeBatch must be serialized per volume with every other head-state
// mutator (see the package concurrency contract); concurrent callers go
// through an engine.Service instead of calling it directly.
func (v *Volume) ServeBatch(reqs []Request, policy disk.SchedPolicy) ([]Completion, float64, error) {
	ss := v.set.Load()
	sc := &v.scratch
	defer sc.release()
	sc.size(len(ss.drives), len(reqs))
	counts, routed, onDrive := sc.counts, sc.routed, sc.onDrive
	// Route: one pass to locate and validate, counting per-drive load.
	for i, r := range reqs {
		si, off, err := ss.locate(r.VLBN)
		if err != nil {
			return nil, 0, err
		}
		seg := &ss.segs[si]
		if off+int64(r.Count) > seg.blocks {
			return nil, 0, fmt.Errorf("lvm: request [%d,+%d) crosses disk %d segment end",
				r.VLBN, r.Count, si)
		}
		k := ss.driveIdx[seg.drive]
		routed[i] = disk.Request{LBN: seg.physStart + off, Count: r.Count}
		onDrive[i] = k
		counts[k]++
	}
	perDrive := sc.perDrive
	busy := 0
	for _, n := range counts {
		if n > 0 {
			busy++
		}
	}
	for i, r := range routed {
		perDrive[onDrive[i]] = append(perDrive[onDrive[i]], r)
	}

	if busy == 1 {
		// Common single-drive path: no goroutine overhead.
		for k := range perDrive {
			if len(perDrive[k]) > 0 {
				sc.serve(ss, k, policy)
			}
		}
	} else if busy > 1 {
		var wg sync.WaitGroup
		for k := range perDrive {
			if len(perDrive[k]) == 0 {
				continue
			}
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				sc.serve(ss, k, policy)
			}(k)
		}
		wg.Wait()
	}

	var elapsed float64
	out := sc.out[:0]
	if cap(out) < len(reqs) {
		out = make([]Completion, 0, len(reqs))
		sc.out = out
	}
	for k := range ss.drives {
		if len(perDrive[k]) == 0 {
			continue
		}
		if sc.errs[k] != nil {
			return nil, 0, sc.errs[k]
		}
		if sc.busyMs[k] > elapsed {
			elapsed = sc.busyMs[k]
		}
		for _, c := range sc.comps[k] {
			si := ss.segOnDrive(k, c.Req.LBN)
			seg := &ss.segs[si]
			out = append(out, Completion{
				Req:      Request{VLBN: seg.startVLBN + (c.Req.LBN - seg.physStart), Count: c.Req.Count},
				DiskIdx:  si,
				Cost:     c.Cost,
				FinishMs: c.FinishMs,
			})
		}
	}
	return out, elapsed, nil
}

// Extend appends extents to the volume, growing its VLBN space online —
// the lvextend of the simulated stack. Growth is append-only: existing
// segment indices, their DiskStart/DiskBlocks, and every mapped VLBN
// are unchanged, so concurrent readers (and the service loop mid-batch)
// observe either the old or the new snapshot, both valid.
func (v *Volume) Extend(extents []Extent) error {
	if len(extents) == 0 {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ss := v.set.Load()
	segs := append(make([]segment, 0, len(ss.segs)+len(extents)), ss.segs...)
	off := ss.total
	for _, e := range extents {
		if err := checkExtent(e, v.adjDepth); err != nil {
			return err
		}
		segs = append(segs, segment{
			drive:     e.Drive,
			physStart: e.PhysStart,
			blocks:    e.Blocks,
			startVLBN: off,
			cow:       e.COW,
		})
		off += e.Blocks
	}
	v.set.Store(buildSegSet(segs))
	return nil
}

// MarkCOW flips every segment to copy-on-write: the volume keeps
// reading the blocks it maps, but the next write to any track must
// fault it into a private extent first (CowSpans/ResolveCOW). The pool
// calls this on a parent volume when it is snapshotted — the frozen
// extents now belong to the snapshot, and the parent breaks sharing on
// write exactly like a clone does.
func (v *Volume) MarkCOW() {
	v.mu.Lock()
	defer v.mu.Unlock()
	ss := v.set.Load()
	segs := append([]segment(nil), ss.segs...)
	for i := range segs {
		segs[i].cow = true
	}
	v.set.Store(buildSegSet(segs))
}

// Extents returns the volume's current extent table in VLBN order,
// with COW marks. The pool uses it to freeze a snapshot's view.
func (v *Volume) Extents() []Extent {
	ss := v.set.Load()
	out := make([]Extent, len(ss.segs))
	for i := range ss.segs {
		s := &ss.segs[i]
		out[i] = Extent{Drive: s.drive, PhysStart: s.physStart, Blocks: s.blocks, COW: s.cow}
	}
	return out
}

// SetCowAlloc installs the pool's allocator for private COW
// replacement extents. Volumes without one (classic volumes, and pool
// volumes never snapshotted or cloned) never need it: CowSpans returns
// nil when nothing is copy-on-write.
func (v *Volume) SetCowAlloc(f CowAllocFunc) {
	v.mu.Lock()
	v.cowAlloc = f
	v.mu.Unlock()
}

// CowSpans returns the track-granule spans of reqs that still map to
// copy-on-write extents, merged per segment and in VLBN order — the
// fault set a write must read (at the shared parent location) and then
// resolve (ResolveCOW) before its own I/O is issued. Nil when the
// volume has no COW segments, which the common case detects with one
// atomic load. Request ranges outside the volume are ignored here; the
// write path surfaces those as routing errors.
func (v *Volume) CowSpans(reqs []Request) []Request {
	ss := v.set.Load()
	if !ss.hasCow {
		return nil
	}
	type span struct {
		seg        int
		start, end int64
	}
	var spans []span
	for _, r := range reqs {
		lo, hi := r.VLBN, r.VLBN+int64(r.Count)
		lo = max(lo, 0)
		hi = min(hi, ss.total)
		for lo < hi {
			si, off, err := ss.locate(lo)
			if err != nil {
				break
			}
			seg := &ss.segs[si]
			cur := min(hi, seg.endVLBN())
			if seg.cow {
				g := seg.drive.Geometry()
				start, end := lo, cur
				if s, _, err := g.TrackBoundaries(seg.physStart + off); err == nil {
					start = max(seg.startVLBN, seg.startVLBN+(s-seg.physStart))
				}
				if _, n, err := g.TrackBoundaries(seg.physStart + (cur - 1 - seg.startVLBN)); err == nil {
					end = min(seg.endVLBN(), seg.startVLBN+(n-seg.physStart))
				}
				spans = append(spans, span{seg: si, start: start, end: end})
			}
			lo = cur
		}
	}
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	merged := spans[:1]
	for _, sp := range spans[1:] {
		last := &merged[len(merged)-1]
		if sp.seg == last.seg && sp.start <= last.end {
			last.end = max(last.end, sp.end)
			continue
		}
		merged = append(merged, sp)
	}
	out := make([]Request, len(merged))
	for i, sp := range merged {
		out[i] = Request{VLBN: sp.start, Count: int(sp.end - sp.start)}
	}
	return out
}

// ResolveCOW breaks sharing under the given fault spans: each span (as
// returned by CowSpans, after its fault read has been served at the
// shared location) is remapped onto a freshly allocated private extent.
// The segment table is republished atomically; VLBNs never change, only
// their physical mapping, so cached extents and mapping state stay
// valid. Splitting renumbers segment indices, so callers must re-derive
// segment boundaries (Locate, DiskBlocks) after a resolve — the engine
// write path does exactly that before issuing the write I/O.
func (v *Volume) ResolveCOW(spans []Request) error {
	if len(spans) == 0 {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cowAlloc == nil {
		return fmt.Errorf("lvm: COW fault without an allocator (volume not pool-backed)")
	}
	segs := append([]segment(nil), v.set.Load().segs...)
	for _, sp := range spans {
		// Locate against the evolving table: earlier spans in this call
		// have already split segments.
		si := sort.Search(len(segs), func(i int) bool { return segs[i].startVLBN > sp.VLBN }) - 1
		if si < 0 {
			return fmt.Errorf("lvm: COW span at VLBN %d out of range", sp.VLBN)
		}
		seg := segs[si]
		spStart, spEnd := sp.VLBN, sp.VLBN+int64(sp.Count)
		if spEnd > seg.endVLBN() {
			return fmt.Errorf("lvm: COW span [%d,+%d) crosses segment boundary", sp.VLBN, sp.Count)
		}
		if !seg.cow {
			continue
		}
		tl := seg.drive.Geometry().TrackLen(seg.physStart + (spStart - seg.startVLBN))
		dr, phys, err := v.cowAlloc(seg.drive, tl, int64(sp.Count))
		if err != nil {
			return fmt.Errorf("lvm: COW allocation failed: %w", err)
		}
		repl := make([]segment, 0, 3)
		if spStart > seg.startVLBN {
			pre := seg
			pre.blocks = spStart - seg.startVLBN
			repl = append(repl, pre)
		}
		repl = append(repl, segment{drive: dr, physStart: phys, blocks: int64(sp.Count), startVLBN: spStart})
		if spEnd < seg.endVLBN() {
			post := seg
			post.physStart += spEnd - seg.startVLBN
			post.blocks = seg.endVLBN() - spEnd
			post.startVLBN = spEnd
			repl = append(repl, post)
		}
		ns := make([]segment, 0, len(segs)+len(repl)-1)
		ns = append(ns, segs[:si]...)
		ns = append(ns, repl...)
		ns = append(ns, segs[si+1:]...)
		segs = ns
	}
	v.set.Store(buildSegSet(segs))
	return nil
}

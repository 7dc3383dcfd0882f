package disk

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// This file implements the positioning-aware SPTF scheduler. The naive
// formulation re-estimates the positioning cost of every pending
// request before every pick — an O(n²) scan per window. This scheduler
// exploits three structural facts instead:
//
//  1. Seek time is a nondecreasing function of cylinder distance, so
//     candidate cylinders can be examined outward from the heads in
//     nondecreasing seek order and the search cut off as soon as even a
//     zero-rotation candidate on the next band cannot beat the best
//     cost found so far.
//  2. On one track every candidate shares the same seek cost, so the
//     minimum-rotational-wait request is the cyclic successor of the
//     head's arrival angle — a binary search in an angle-sorted run.
//  3. On one band every candidate shares the same arrival time, hence
//     one spindle phase, so a 64-bit occupancy mask of the angles its
//     tracks hold (bit k for the arc [k/64, (k+1)/64)) bounds the least
//     rotational wait there from below (waitBoundMs). A band or track
//     whose positioning cost plus that bound exceeds the best cost so
//     far cannot win and is not scored; a farther band still can, since
//     its phase differs.
//
// A window is indexed by one slab and two range tables, all built once
// on admission and free of pointers: the requests are decoded into an
// entry array in (track, angle, Count, arrival position) order, so a
// track is a contiguous run of angle-sorted entries, a cylinder band a
// contiguous run of tracks, and every lookup — the band nearest the
// heads, a track's successor entry, the entry that continues the last
// transfer — is a binary search over a sub-slice, tried first at the
// last pick's track. Only tracks and bands that hold requests exist, so
// a pick never probes an empty one.
//
// The planner issues windows ascending by LBN, and the index is built
// from that order rather than by sorting. Each request is decoded by
// stepping from the previous one's zone and track; the zone is searched
// only when the LBN leaves it. Ascending LBNs on one track are
// ascending sectors, so a track's run is already in angle order but for
// one wrap at the skew origin, which is rotated to the front of the
// run. A window that is not ascending — an LBN inversion, or requests
// for one sector out of Count order — is sorted instead; both builds
// give the same index, so the order is relied on for speed only.
//
// The order of service is fully specified. Each pick is the argmin of
// the estimated positioning cost (the greedy reference's choice up to
// floating-point ties); equal costs go to the candidate examined last,
// where bands are examined outward from the heads (the nearer first,
// the lower cylinder on equal distance) and tracks in ascending order
// within a band; requests that start on the same sector are served in
// ascending Count, exact duplicates in arrival order. Simulated time
// depends on every one of these choices, and sptf_ref_test.go holds the
// scheduler this one replaced to pin them.

// sptfEntry is one pending request with its precomputed physical
// coordinates; the scheduler never re-decodes a request after admission.
type sptfEntry struct {
	req     Request
	angle   float64 // angle at which the request's first sector passes the head
	track   int     // global track index
	arrival int32   // position in the window as issued
	dead    bool
}

// sptfTrack is one track's run of the slab: ents[lo:lo+n] in ascending
// angle order. Serviced entries are tombstoned and the run compacted
// once they outnumber the live ones, keeping successor scans amortized
// O(1).
type sptfTrack struct {
	track    int   // global track index
	startLBN int64 // the track's first block
	zone     int32 // index of the track's zone
	lo, n    int32 // ents[lo:lo+n]
	live     int32
	band     int32  // index of the track's cylinder in bands
	mask     uint64 // angle buckets of the live entries (angleBucket)
}

// sptfBand is one cylinder holding requests: tracks[tlo:thi]. left and
// right stitch over emptied bands so the outward walk skips them.
type sptfBand struct {
	cyl         int
	tlo, thi    int32
	live        int32
	left, right int32
	mask        uint64 // OR of its tracks' masks
}

// sptfSched is the pending-request index for one scheduling window.
type sptfSched struct {
	d      *Disk
	ents   []sptfEntry // sorted by (track, angle, Count, arrival)
	tracks []sptfTrack // ascending track
	bands  []sptfBand  // ascending cylinder
	live   int
	last   int32 // track of the previous pick, -1 before the first
}

// sptfPick is the best candidate found so far within one pick.
type sptfPick struct {
	cost  float64
	track int32 // index into tracks
	at    int32 // index into ents
}

// sptfKeep bounds the windows whose slabs a drive keeps for the next
// window: one of at most this many requests is built into the slabs the
// last such window left on the Disk, and a longer one — a write-back
// group commit issues up to maxSPTFBatch — allocates its own and drops
// them after serving, so no drive pins a flush-sized index on the heap.
// At 256 requests the kept slabs take at most 32 KiB: 40, 48 and 40
// bytes per entry, track and band.
const sptfKeep = 256

// sptfSlabs are the index slabs a drive keeps between windows (see
// sptfKeep). A window owns them while it is served, under the drive's
// single owner (internal/lvm serves a drive under its mutex).
type sptfSlabs struct {
	ents   []sptfEntry
	tracks []sptfTrack
	bands  []sptfBand
}

// slab returns a slice of n elements backed by *kept when it is large
// enough; otherwise it allocates one, and keeps it only when n is
// within sptfKeep. The elements are not cleared: every builder writes
// each one before reading it.
func slab[T any](kept *[]T, n int) []T {
	if n <= cap(*kept) {
		return (*kept)[:n]
	}
	s := make([]T, n)
	if n <= sptfKeep {
		*kept = s
	}
	return s
}

func newSPTF(d *Disk, reqs []Request) sptfSched {
	ents := slab(&d.slabs.ents, len(reqs))
	if !decodeSPTF(d.g, reqs, ents) {
		slices.SortFunc(ents, compareSPTFEntries)
	}
	return indexSPTF(d, ents)
}

// compareSPTFEntries orders entries by (track, angle, Count, arrival).
// On one track the angle determines the LBN, so Count and arrival
// position are the only keys left to order requests for one sector.
func compareSPTFEntries(a, b sptfEntry) int {
	if c := cmp.Compare(a.track, b.track); c != 0 {
		return c
	}
	if c := cmp.Compare(a.angle, b.angle); c != 0 {
		return c
	}
	if c := cmp.Compare(a.req.Count, b.req.Count); c != 0 {
		return c
	}
	return cmp.Compare(a.arrival, b.arrival)
}

// decodeSPTF decodes reqs into ents, stepping from the previous
// request's zone and track, and reports whether ents came out in
// compareSPTFEntries order. They do when reqs ascend by LBN and
// requests for one sector ascend by Count: a track's run is then in
// angle order but for the wrap at the skew origin, which is rotated to
// the front of the run. Otherwise ents are left in issue order.
func decodeSPTF(g *Geometry, reqs []Request, ents []sptfEntry) (inOrder bool) {
	var z *Zone
	var zoneEnd, trackLBN, trackEnd int64
	var track, skew, spt int
	run, wrap := 0, -1 // the current track's run starts at ents[run], its wrap (if any) at ents[wrap]
	inOrder = true
	for i, r := range reqs {
		if r.LBN < trackLBN || r.LBN >= trackEnd {
			if inOrder && wrap >= 0 {
				rotateRun(ents[run:i], wrap-run)
			}
			if z == nil || r.LBN < z.startLBN || r.LBN >= zoneEnd {
				z = &g.Zones[g.ZoneIndexOf(r.LBN)]
				spt = z.SectorsPerTrack
				zoneEnd = z.startLBN + int64(z.Cylinders()*g.Surfaces)*int64(spt)
			}
			inZone := int((r.LBN - z.startLBN) / int64(spt))
			track = z.startTrack + inZone
			trackLBN = z.startLBN + int64(inZone)*int64(spt)
			trackEnd = trackLBN + int64(spt)
			skew = g.skewOffsetIn(z, track)
			run, wrap = i, -1
		}
		// angleOfSectorIn, with the track's skew computed once.
		e := &ents[i]
		*e = sptfEntry{
			req:     r,
			angle:   float64((int(r.LBN-trackLBN)+skew)%spt) / float64(spt),
			track:   track,
			arrival: int32(i),
		}
		if i > 0 && inOrder {
			if p := reqs[i-1]; r.LBN < p.LBN || r.LBN == p.LBN && r.Count < p.Count {
				inOrder = false
			} else if i > run && e.angle < ents[i-1].angle {
				wrap = i
			}
		}
	}
	if inOrder && wrap >= 0 {
		rotateRun(ents[run:], wrap-run)
	}
	return inOrder
}

// rotateRun rotates es left by k in place, bringing es[k:] to the front.
func rotateRun(es []sptfEntry, k int) {
	slices.Reverse(es[:k])
	slices.Reverse(es[k:])
	slices.Reverse(es)
}

// indexSPTF builds the track and band tables over ents, which must be
// in compareSPTFEntries order.
func indexSPTF(d *Disk, ents []sptfEntry) sptfSched {
	g := d.g
	nt, nb := 0, 0
	for i := range ents {
		if i == 0 || ents[i].track != ents[i-1].track {
			nt++
			if i == 0 || g.cylOfTrack(ents[i].track) != g.cylOfTrack(ents[i-1].track) {
				nb++
			}
		}
	}
	tracks := slab(&d.slabs.tracks, nt)[:0]
	bands := slab(&d.slabs.bands, nb)[:0]
	zi := 0
	for i := range ents {
		if tr := ents[i].track; i == 0 || tr != ents[i-1].track {
			if cyl := g.cylOfTrack(tr); len(bands) == 0 || cyl != bands[len(bands)-1].cyl {
				bi := int32(len(bands))
				bands = append(bands, sptfBand{cyl: cyl, tlo: int32(len(tracks)), left: bi - 1, right: bi + 1})
			}
			// Tracks ascend, so their zones do too.
			for zi+1 < len(g.Zones) && g.Zones[zi+1].startTrack <= tr {
				zi++
			}
			z := &g.Zones[zi]
			tracks = append(tracks, sptfTrack{
				track:    tr,
				startLBN: z.startLBN + int64(tr-z.startTrack)*int64(z.SectorsPerTrack),
				zone:     int32(zi),
				lo:       int32(i),
				band:     int32(len(bands) - 1),
			})
			bands[len(bands)-1].thi = int32(len(tracks))
		}
		bit := uint64(1) << angleBucket(ents[i].angle)
		tracks[len(tracks)-1].n++
		tracks[len(tracks)-1].live++
		tracks[len(tracks)-1].mask |= bit
		bands[len(bands)-1].live++
		bands[len(bands)-1].mask |= bit
	}
	return sptfSched{d: d, ents: ents, tracks: tracks, bands: bands, live: len(ents), last: -1}
}

func (s *sptfSched) liveLeftFrom(i int32) int32 {
	for i >= 0 && s.bands[i].live == 0 {
		i = s.bands[i].left
	}
	return i
}

func (s *sptfSched) liveRightFrom(i int32) int32 {
	for i < int32(len(s.bands)) && s.bands[i].live == 0 {
		i = s.bands[i].right
	}
	return i
}

// pop removes the pending request with the least estimated positioning
// cost from the drive's current head state, and returns it with the
// index of its track.
func (s *sptfSched) pop() (Request, int32) {
	d, g := s.d, s.d.g
	best := sptfPick{cost: math.Inf(1), at: -1}

	// Prefetch-continuation fast path: the request beginning exactly
	// where the last transfer ended pays no command overhead.
	if ti, at := s.continuation(); at >= 0 {
		seekMs := g.positionTimeMs(d.curTrack, s.tracks[ti].track)
		best = sptfPick{cost: seekMs + g.rotateWaitMs(d.nowMs+seekMs, s.ents[at].angle), track: ti, at: at}
	}

	// Every other candidate pays the command overhead before the arm
	// moves. All tracks of a band share one arm cost, hence one arrival
	// time and one spindle phase.
	issued := d.nowMs + g.CommandMs
	curCyl := g.cylOfTrack(d.curTrack)
	nb := int32(len(s.bands))
	pos := s.bandAtOrAfter(curCyl)
	li := s.liveLeftFrom(pos - 1)
	ri := s.liveRightFrom(pos)
	if ri < nb && s.bands[ri].cyl == curCyl {
		// Examine the current band first: it holds the only zero-seek
		// candidates (the heads' own track) and the head-switch ones.
		b := &s.bands[ri]
		for ti := b.tlo; ti < b.thi; ti++ {
			t := &s.tracks[ti]
			if t.live == 0 {
				continue
			}
			seekMs := g.HeadSwitchMs
			if t.track == d.curTrack {
				seekMs = 0
			}
			if posMs := g.CommandMs + seekMs; posMs < best.cost {
				at, w := s.minWait(t, g.angleAt(issued+seekMs))
				if c := posMs + w; c <= best.cost {
					best = sptfPick{cost: c, track: ti, at: at}
				}
			}
		}
		ri = s.liveRightFrom(b.right)
	}
	seekMs, posMs, phase := -1.0, 0.0, 0.0
	for li >= 0 || ri < nb {
		var i int32
		if ri >= nb || (li >= 0 && curCyl-s.bands[li].cyl <= s.bands[ri].cyl-curCyl) {
			i = li
			li = s.liveLeftFrom(s.bands[li].left)
		} else {
			i = ri
			ri = s.liveRightFrom(s.bands[ri].right)
		}
		b := &s.bands[i]
		// Every band within the settle range costs the settle time, the
		// plateau of the seek curve; only farther ones consult the curve.
		ms := g.SettleMs
		if dc := b.cyl - curCyl; dc > g.SettleCyls || dc < -g.SettleCyls {
			ms = g.SeekTimeMs(dc)
		}
		if ms != seekMs {
			seekMs, posMs, phase = ms, g.CommandMs+ms, g.angleAt(issued+ms)
		}
		// Every remaining band is at least this far, so even a request
		// with zero rotational wait there cannot win: stop searching.
		if posMs >= best.cost {
			break
		}
		// No request of this band comes round soon enough to win, but a
		// farther band, at another phase, still may.
		if posMs+g.waitBoundMs(b.mask, phase) > best.cost {
			continue
		}
		// A zero-wait hit ends the band too: best.cost only falls.
		for ti := b.tlo; ti < b.thi && posMs < best.cost; ti++ {
			t := &s.tracks[ti]
			if t.live == 0 {
				continue
			}
			// Most tracks of a window hold one request: score it here.
			at, w := t.lo, 0.0
			if t.n == 1 {
				w = g.waitFromMs(phase, s.ents[at].angle)
			} else if posMs+g.waitBoundMs(t.mask, phase) > best.cost {
				continue
			} else {
				at, w = s.minWait(t, phase)
			}
			if c := posMs + w; c <= best.cost {
				best = sptfPick{cost: c, track: ti, at: at}
			}
		}
	}
	r := s.ents[best.at].req
	s.remove(best.track, best.at)
	s.last = best.track
	return r, best.track
}

// continuation returns the pending entry that starts exactly where the
// last transfer ended (the earliest issued, if several do) and its
// track, or at < 0 if there is none.
func (s *sptfSched) continuation() (ti, at int32) {
	d, g := s.d, s.d.g
	ti = s.trackAtOrBefore(d.lastEnd)
	if ti < 0 || s.tracks[ti].live == 0 {
		return -1, -1
	}
	t := &s.tracks[ti]
	z := &g.Zones[t.zone]
	sector := d.lastEnd - t.startLBN
	if sector >= int64(z.SectorsPerTrack) {
		return -1, -1
	}
	es := s.ents[t.lo : t.lo+t.n]
	angle := g.angleOfSectorIn(z, t.track, int(sector))
	first := -1
	for i := searchAngle(es, angle); i < len(es) && es[i].angle == angle; i++ {
		if !es[i].dead && (first < 0 || es[i].arrival < es[first].arrival) {
			first = i
		}
	}
	if first < 0 {
		return -1, -1
	}
	return ti, t.lo + int32(first)
}

// trackAtOrBefore returns the last track starting at or before lbn, -1
// if there is none: tracks ascend in LBN as in track number, so it is
// the only one that can hold lbn. A transfer usually ends on the last
// pick's track or at the start of the next one, so those two are tried
// before the search.
func (s *sptfSched) trackAtOrBefore(lbn int64) int32 {
	ts := s.tracks
	if i := s.last; i >= 0 && ts[i].startLBN <= lbn {
		if int(i)+1 == len(ts) || ts[i+1].startLBN > lbn {
			return i
		}
		if int(i)+2 == len(ts) || ts[i+2].startLBN > lbn {
			return i + 1
		}
	}
	lo, hi := 0, len(ts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts[m].startLBN <= lbn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo) - 1
}

// bandAtOrAfter returns the first band whose cylinder is at least cyl,
// len(bands) if there is none. The heads usually stay on the last
// pick's cylinder, so its band is tried before the search.
func (s *sptfSched) bandAtOrAfter(cyl int) int32 {
	if s.last >= 0 {
		if b := s.tracks[s.last].band; s.bands[b].cyl == cyl {
			return b
		}
	}
	bs := s.bands
	lo, hi := 0, len(bs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bs[m].cyl < cyl {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return int32(lo)
}

// searchAngle returns the first index of es, which is in ascending angle
// order, whose angle is at least a (len(es) if there is none): the
// sort.Search of the hot path, without the closure call per probe.
func searchAngle(es []sptfEntry, a float64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].angle < a {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// minWait returns the live entry of t (which must have one) with the
// least rotational wait for heads arriving at the given spindle phase,
// and that wait. The candidate is the cyclic successor of the arrival
// angle; the predecessor is also probed to honour waitFromMs's epsilon
// for exact continuations.
func (s *sptfSched) minWait(t *sptfTrack, phase float64) (int32, float64) {
	g := s.d.g
	es := s.ents[t.lo : t.lo+t.n]
	if len(es) == 1 {
		return t.lo, g.waitFromMs(phase, es[0].angle)
	}
	succ := searchAngle(es, phase)
	pred := succ - 1
	for {
		if succ == len(es) {
			succ = 0
		}
		if !es[succ].dead {
			break
		}
		succ++
	}
	for {
		if pred < 0 {
			pred = len(es) - 1
		}
		if !es[pred].dead {
			break
		}
		pred--
	}
	at, w := succ, g.waitFromMs(phase, es[succ].angle)
	if pred != succ {
		if pw := g.waitFromMs(phase, es[pred].angle); pw < w {
			at, w = pred, pw
		}
	}
	return t.lo + int32(at), w
}

// remove tombstones entry at of track ti and takes it out of the live
// counts and the angle masks that steer the walk.
func (s *sptfSched) remove(ti, at int32) {
	s.ents[at].dead = true
	s.live--
	t := &s.tracks[ti]
	t.live--
	if k := angleBucket(s.ents[at].angle); !s.bucketLive(t, k) {
		t.mask &^= 1 << k
		b := &s.bands[t.band]
		b.mask = 0
		for _, u := range s.tracks[b.tlo:b.thi] {
			b.mask |= u.mask
		}
	}
	if dead := t.n - t.live; t.live > 0 && dead > t.live && dead > 16 {
		kept := s.ents[t.lo:t.lo]
		for _, e := range s.ents[t.lo : t.lo+t.n] {
			if !e.dead {
				kept = append(kept, e)
			}
		}
		t.n = t.live
	}
	b := &s.bands[t.band]
	b.live--
	if b.live == 0 {
		// Stitch neighbours so the outward walk skips this band.
		if b.left >= 0 {
			s.bands[b.left].right = b.right
		}
		if b.right < int32(len(s.bands)) {
			s.bands[b.right].left = b.left
		}
	}
}

// bucketLive reports whether track t has a live entry in angle bucket
// k: its entries of one bucket are contiguous in its angle-sorted run.
func (s *sptfSched) bucketLive(t *sptfTrack, k uint) bool {
	es := s.ents[t.lo : t.lo+t.n]
	for i := searchAngle(es, float64(k)/64); i < len(es) && angleBucket(es[i].angle) == k; i++ {
		if !es[i].dead {
			return true
		}
	}
	return false
}

// angleBucket returns the 1/64-rotation arc an angle in [0,1) falls in:
// its bit in an sptfTrack's or sptfBand's mask. The product is exact.
func angleBucket(a float64) uint { return uint(a * 64) }

// waitBoundMs returns a lower bound on waitFromMs(phase, a) over every
// angle a whose bucket is set in mask (which must not be empty). With p
// the phase's bucket, let p−1+j be the first occupied one counting from
// p−1. For j ≤ 2 the bound is negative, that is, none: bucket p−1 may
// hold a target that rotAngleEps turns into no wait, and buckets p and
// p+1 targets just past the phase. Otherwise every target lies at least
// (j−2)/64 of a rotation past the phase; the margin keeps the bound
// strictly below the rounded wait.
func (g *Geometry) waitBoundMs(mask uint64, phase float64) float64 {
	// Bit i of the rotated mask is bucket (p−1+i) mod 64.
	j := bits.TrailingZeros64(bits.RotateLeft64(mask, 1-int(angleBucket(phase))))
	return (float64(j-2)/64 - 1e-9) * g.rotationMs
}

// serveSPTF services one scheduling window of validated requests in
// shortest-positioning-time order, advancing the drive clock and heads,
// and appends the completions to out. Each pick is served from the
// coordinates decoded on admission.
func (d *Disk) serveSPTF(out []Completion, reqs []Request) []Completion {
	if len(reqs) == 1 {
		cost := d.accessValid(reqs[0])
		return append(out, Completion{Req: reqs[0], Cost: cost, FinishMs: d.nowMs})
	}
	s := newSPTF(d, reqs)
	for s.live > 0 {
		r, ti := s.pop()
		t := &s.tracks[ti]
		cost := d.access(r, &d.g.Zones[t.zone], t.track, int(r.LBN-t.startLBN))
		out = append(out, Completion{Req: r, Cost: cost, FinishMs: d.nowMs})
	}
	return out
}

package disk

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// This file implements the positioning-aware SPTF scheduler. The naive
// formulation re-estimates the positioning cost of every pending
// request before every pick — an O(n²) scan per window. This scheduler
// exploits two structural facts instead:
//
//  1. Seek time is a nondecreasing function of cylinder distance, so
//     candidate cylinders can be examined outward from the heads in
//     nondecreasing seek order and the search cut off as soon as even a
//     zero-rotation candidate on the next band cannot beat the best
//     cost found so far.
//  2. On one track every candidate shares the same seek cost, so the
//     minimum-rotational-wait request is the cyclic successor of the
//     head's arrival angle — a binary search in an angle-sorted run.
//
// A window is indexed by one slab and two range tables, all built once
// on admission and free of pointers: the requests are decoded into an
// entry array and sorted by (track, angle, Count, arrival position), so
// a track is a contiguous run of angle-sorted entries, a cylinder band
// a contiguous run of tracks, and every lookup — the band nearest the
// heads, a track's successor entry, the entry that continues the last
// transfer — is a binary search over a sub-slice. Only tracks and bands
// that hold requests exist, so a pick never probes an empty one.
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
	band     int32 // index of the track's cylinder in bands
}

// sptfBand is one cylinder holding requests: tracks[tlo:thi]. left and
// right stitch over emptied bands so the outward walk skips them.
type sptfBand struct {
	cyl         int
	tlo, thi    int32
	live        int32
	left, right int32
}

// sptfSched is the pending-request index for one scheduling window.
type sptfSched struct {
	d      *Disk
	ents   []sptfEntry // sorted by (track, angle, Count, arrival)
	tracks []sptfTrack // ascending track
	bands  []sptfBand  // ascending cylinder
	live   int
}

// sptfPick is the best candidate found so far within one pick.
type sptfPick struct {
	cost  float64
	track int32 // index into tracks
	at    int32 // index into ents
}

func newSPTF(d *Disk, reqs []Request) sptfSched {
	g := d.g
	ents := make([]sptfEntry, len(reqs))
	for i, r := range reqs {
		p := g.mustDecode(r.LBN)
		ents[i] = sptfEntry{
			req:     r,
			angle:   g.angleOfSectorIn(&g.Zones[p.Zone], p.Track, p.Sector),
			track:   p.Track,
			arrival: int32(i),
		}
	}
	// On one track the angle determines the LBN, so Count and arrival
	// position are the only keys left to order requests for one sector.
	slices.SortFunc(ents, func(a, b sptfEntry) int {
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
	})

	nt, nb := 0, 0
	for i := range ents {
		if i == 0 || ents[i].track != ents[i-1].track {
			nt++
			if i == 0 || g.cylOfTrack(ents[i].track) != g.cylOfTrack(ents[i-1].track) {
				nb++
			}
		}
	}
	tracks := make([]sptfTrack, 0, nt)
	bands := make([]sptfBand, 0, nb)
	for i := range ents {
		if tr := ents[i].track; i == 0 || tr != ents[i-1].track {
			if cyl := g.cylOfTrack(tr); len(bands) == 0 || cyl != bands[len(bands)-1].cyl {
				bi := int32(len(bands))
				bands = append(bands, sptfBand{cyl: cyl, tlo: int32(len(tracks)), left: bi - 1, right: bi + 1})
			}
			zi := g.zoneIndexOfTrack(tr)
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
		tracks[len(tracks)-1].n++
		tracks[len(tracks)-1].live++
		bands[len(bands)-1].live++
	}
	return sptfSched{d: d, ents: ents, tracks: tracks, bands: bands, live: len(reqs)}
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
	pos := int32(sort.Search(len(s.bands), func(i int) bool { return s.bands[i].cyl >= curCyl }))
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
	return r, best.track
}

// continuation returns the pending entry that starts exactly where the
// last transfer ended (the earliest issued, if several do) and its
// track, or at < 0 if there is none.
func (s *sptfSched) continuation() (ti, at int32) {
	d, g := s.d, s.d.g
	// Tracks ascend in LBN as in track number: the last one starting at
	// or before lastEnd is the only one that can hold it.
	ti = int32(sort.Search(len(s.tracks), func(i int) bool { return s.tracks[i].startLBN > d.lastEnd })) - 1
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
// counts that steer the walk.
func (s *sptfSched) remove(ti, at int32) {
	s.ents[at].dead = true
	s.live--
	t := &s.tracks[ti]
	t.live--
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

// serveSPTF services one scheduling window of validated requests in
// shortest-positioning-time order, advancing the drive clock and heads.
// Each pick is served from the coordinates decoded on admission.
func (d *Disk) serveSPTF(reqs []Request) []Completion {
	out := make([]Completion, 0, len(reqs))
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

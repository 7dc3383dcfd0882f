package disk

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the map-based SPTF scheduler that sptf.go replaced,
// verbatim but for three things: its names carry a Ref, each track is
// sorted with a stable sort, so that requests equal in (angle, LBN,
// Count) keep their arrival order — the tie the unstable sort left to
// chance and the production scheduler now specifies — and it prices
// requests with private copies of the drive's rotational-wait and
// access arithmetic as they were written then, so that a change to the
// production copies cannot move both sides at once. It is the oracle of
// TestSPTFMatchesRef and FuzzSPTF: schedules must be equal completion
// for completion, because simulated time depends on every pick. It also
// keeps the production index's sort-built constructor, newSPTFBySort,
// the oracle of the build that reads the issue order.

// waitFromMsRef is the rotational wait from spindle phase `phase` to
// the target angle, with the epsilon that keeps an exact continuation
// from paying a spurious rotation.
func waitFromMsRef(g *Geometry, phase, target float64) float64 {
	d := target - phase
	if d < 0 {
		d += 1.0
	}
	if d < 0 || d > 1-rotAngleEps {
		d = 0
	}
	return d * g.rotationMs
}

func rotateWaitMsRef(g *Geometry, nowMs, target float64) float64 {
	return waitFromMsRef(g, g.angleAt(nowMs), target)
}

// positioningEstimateMsRef estimates the positioning (seek + rotational
// wait) cost of starting request r now, without moving the heads.
func positioningEstimateMsRef(d *Disk, r Request) float64 {
	var cmd float64
	if r.LBN != d.lastEnd {
		cmd = d.g.CommandMs
	}
	p := d.g.mustDecode(r.LBN)
	seekMs := d.g.positionTimeMs(d.curTrack, p.Track)
	arrive := d.nowMs + cmd + seekMs
	rotMs := rotateWaitMsRef(d.g, arrive, d.g.angleOfSectorIn(&d.g.Zones[p.Zone], p.Track, p.Sector))
	return cmd + seekMs + rotMs
}

// accessRef services one request from the current head state, decoding
// every track-sized segment from its LBN.
func accessRef(d *Disk, r Request) (AccessCost, error) {
	if err := r.validate(d.g); err != nil {
		return AccessCost{}, err
	}
	var cost AccessCost
	if r.LBN != d.lastEnd {
		cost.CommandMs = d.g.CommandMs
		d.nowMs += cost.CommandMs
	}
	remaining := r.Count
	cur := r.LBN
	for remaining > 0 {
		p := d.g.mustDecode(cur)
		z := &d.g.Zones[p.Zone]
		run := z.SectorsPerTrack - p.Sector
		if run > remaining {
			run = remaining
		}

		seekMs := d.g.positionTimeMs(d.curTrack, p.Track)
		arrive := d.nowMs + seekMs
		rotMs := rotateWaitMsRef(d.g, arrive, d.g.angleOfSectorIn(z, p.Track, p.Sector))
		xferMs := float64(run) * d.g.rotationMs / float64(z.SectorsPerTrack)

		cost.SeekMs += seekMs
		cost.RotateMs += rotMs
		cost.TransferMs += xferMs
		d.nowMs = arrive + rotMs + xferMs
		d.curTrack = p.Track

		remaining -= run
		cur += int64(run)
	}
	d.lastEnd = cur
	d.stats.add(r, cost)
	return cost, nil
}

// sptfRefEntry is one pending request with its precomputed physical
// coordinates; the scheduler never re-decodes an LBN after admission.
type sptfRefEntry struct {
	req   Request
	track int
	cyl   int
	angle float64 // angle at which the request's first sector passes the head
	dead  bool
}

// sptfRefTrack holds one track's pending entries in ascending angle order.
// Serviced entries are tombstoned and compacted once they outnumber the
// live ones, keeping successor scans amortized O(1).
type sptfRefTrack struct {
	entries []*sptfRefEntry
	live    int
	dead    int
}

func (b *sptfRefTrack) compact() {
	kept := b.entries[:0]
	for _, e := range b.entries {
		if !e.dead {
			kept = append(kept, e)
		}
	}
	b.entries = kept
	b.dead = 0
}

// minWait returns the live entry with the least rotational wait for a
// head arriving at arriveMs, and that wait. The candidate is the cyclic
// successor of the arrival angle; the predecessor is also probed to
// honour rotateWaitMsRef's epsilon for exact continuations.
func (b *sptfRefTrack) minWait(g *Geometry, arriveMs float64) (*sptfRefEntry, float64) {
	es := b.entries
	target := g.angleAt(arriveMs)
	idx := sort.Search(len(es), func(i int) bool { return es[i].angle >= target })

	var succ, pred *sptfRefEntry
	for k, i := 0, idx; k < len(es); k, i = k+1, i+1 {
		if i == len(es) {
			i = 0
		}
		if !es[i].dead {
			succ = es[i]
			break
		}
	}
	for k, i := 0, idx-1; k < len(es); k, i = k+1, i-1 {
		if i < 0 {
			i = len(es) - 1
		}
		if !es[i].dead {
			pred = es[i]
			break
		}
	}
	if succ == nil {
		return nil, 0
	}
	e, w := succ, rotateWaitMsRef(g, arriveMs, succ.angle)
	if pred != nil && pred != succ {
		if pw := rotateWaitMsRef(g, arriveMs, pred.angle); pw < w {
			e, w = pred, pw
		}
	}
	return e, w
}

// sptfRefSched is the pending-request index for one scheduling window.
type sptfRefSched struct {
	d       *Disk
	byTrack map[int]*sptfRefTrack
	byLBN   map[int64][]*sptfRefEntry // continuation candidates, insertion order

	// Non-empty cylinder bands, sorted. left/right stitch over emptied
	// bands so the outward walk skips them.
	cyls    []int
	liveCyl []int
	left    []int
	right   []int

	live int
}

func newSPTFRef(d *Disk, reqs []Request) *sptfRefSched {
	s := &sptfRefSched{
		d:       d,
		byTrack: make(map[int]*sptfRefTrack),
		byLBN:   make(map[int64][]*sptfRefEntry, len(reqs)),
		live:    len(reqs),
	}
	entries := make([]sptfRefEntry, len(reqs))
	cylSet := make(map[int]int) // cylinder -> live count
	for i, r := range reqs {
		p := d.g.mustDecode(r.LBN)
		z := &d.g.Zones[p.Zone]
		e := &entries[i]
		*e = sptfRefEntry{
			req:   r,
			track: p.Track,
			cyl:   p.Cyl,
			angle: d.g.angleOfSectorIn(z, p.Track, p.Sector),
		}
		s.byLBN[r.LBN] = append(s.byLBN[r.LBN], e)
		b := s.byTrack[p.Track]
		if b == nil {
			b = &sptfRefTrack{}
			s.byTrack[p.Track] = b
		}
		b.entries = append(b.entries, e)
		b.live++
		cylSet[p.Cyl]++
	}
	for _, b := range s.byTrack {
		slices.SortStableFunc(b.entries, func(a, c *sptfRefEntry) int {
			switch {
			case a.angle != c.angle:
				if a.angle < c.angle {
					return -1
				}
				return 1
			case a.req.LBN != c.req.LBN:
				if a.req.LBN < c.req.LBN {
					return -1
				}
				return 1
			default:
				return a.req.Count - c.req.Count
			}
		})
	}
	s.cyls = make([]int, 0, len(cylSet))
	for c := range cylSet {
		s.cyls = append(s.cyls, c)
	}
	slices.Sort(s.cyls)
	s.liveCyl = make([]int, len(s.cyls))
	s.left = make([]int, len(s.cyls))
	s.right = make([]int, len(s.cyls))
	for i, c := range s.cyls {
		s.liveCyl[i] = cylSet[c]
		s.left[i] = i - 1
		s.right[i] = i + 1
	}
	return s
}

func (s *sptfRefSched) liveLeftFrom(i int) int {
	for i >= 0 && s.liveCyl[i] == 0 {
		i = s.left[i]
	}
	return i
}

func (s *sptfRefSched) liveRightFrom(i int) int {
	for i < len(s.cyls) && s.liveCyl[i] == 0 {
		i = s.right[i]
	}
	return i
}

// pop removes and returns the pending request with the least estimated
// positioning cost from the drive's current head state.
func (s *sptfRefSched) pop() *sptfRefEntry {
	d, g := s.d, s.d.g
	var best *sptfRefEntry
	bestCost := math.Inf(1)

	// Prefetch-continuation fast path: the request beginning exactly
	// where the last transfer ended pays no command overhead.
	for _, e := range s.byLBN[d.lastEnd] {
		if !e.dead {
			best, bestCost = e, positioningEstimateMsRef(d, e.req)
			break
		}
	}

	curCyl := g.cylOfTrack(d.curTrack)
	pos := sort.SearchInts(s.cyls, curCyl)
	li := s.liveLeftFrom(pos - 1)
	ri := s.liveRightFrom(pos)
	if ri < len(s.cyls) && s.cyls[ri] == curCyl {
		// Examine the current band first: it holds the only zero-seek
		// candidates.
		s.evalBand(ri, curCyl, &best, &bestCost)
		ri = s.liveRightFrom(s.right[ri])
	}
	for li >= 0 || ri < len(s.cyls) {
		var i int
		if ri >= len(s.cyls) || (li >= 0 && curCyl-s.cyls[li] <= s.cyls[ri]-curCyl) {
			i = li
			li = s.liveLeftFrom(s.left[li])
		} else {
			i = ri
			ri = s.liveRightFrom(s.right[ri])
		}
		dc := s.cyls[i] - curCyl
		if dc < 0 {
			dc = -dc
		}
		// Every remaining band is at least this far, so even a request
		// with zero rotational wait there cannot win: stop searching.
		if g.CommandMs+g.SeekTimeMs(dc) >= bestCost {
			break
		}
		s.evalBand(i, curCyl, &best, &bestCost)
	}
	if best != nil {
		s.remove(best)
	}
	return best
}

// evalBand scores the best candidate on every non-empty track of the
// band at cyls[i] against the current best.
func (s *sptfRefSched) evalBand(i, curCyl int, best **sptfRefEntry, bestCost *float64) {
	d, g := s.d, s.d.g
	base := s.cyls[i] * g.Surfaces
	for t := base; t < base+g.Surfaces; t++ {
		b := s.byTrack[t]
		if b == nil || b.live == 0 {
			continue
		}
		seekMs := g.positionTimeMs(d.curTrack, t)
		if g.CommandMs+seekMs >= *bestCost {
			continue
		}
		arrive := d.nowMs + g.CommandMs + seekMs
		if e, w := b.minWait(g, arrive); e != nil {
			if c := g.CommandMs + seekMs + w; c <= *bestCost {
				*best, *bestCost = e, c
			}
		}
	}
}

func (s *sptfRefSched) remove(e *sptfRefEntry) {
	e.dead = true
	s.live--
	b := s.byTrack[e.track]
	b.live--
	b.dead++
	if b.live == 0 {
		delete(s.byTrack, e.track)
	} else if b.dead > b.live && b.dead > 16 {
		b.compact()
	}
	ci := sort.SearchInts(s.cyls, e.cyl)
	s.liveCyl[ci]--
	if s.liveCyl[ci] == 0 {
		// Stitch neighbours so the outward walk skips this band.
		if l := s.left[ci]; l >= 0 {
			s.right[l] = s.right[ci]
		}
		if r := s.right[ci]; r < len(s.cyls) {
			s.left[r] = s.left[ci]
		}
	}
}

// serveSPTFRef services one scheduling window with the reference
// scheduler, advancing the drive clock and heads.
func serveSPTFRef(d *Disk, reqs []Request) ([]Completion, error) {
	out := make([]Completion, 0, len(reqs))
	if len(reqs) == 1 {
		cost, err := accessRef(d, reqs[0])
		if err != nil {
			return nil, err
		}
		return append(out, Completion{Req: reqs[0], Cost: cost, FinishMs: d.nowMs}), nil
	}
	s := newSPTFRef(d, reqs)
	for s.live > 0 {
		e := s.pop()
		cost, err := accessRef(d, e.req)
		if err != nil {
			return nil, err
		}
		out = append(out, Completion{Req: e.req, Cost: cost, FinishMs: d.nowMs})
	}
	return out, nil
}

// newSPTFBySort is the window index as newSPTF built it before it read
// the issue order: every request decoded from scratch, then the slab
// sorted by (track, angle, Count, arrival). It is the oracle of
// TestSPTFIndexMatchesSort: newSPTF's ents, tracks and bands must be
// equal to its own for every window.
func newSPTFBySort(d *Disk, reqs []Request) sptfSched {
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

// An SPTF script is the byte form of a differential run, so that the
// randomized test, the fuzzer and the benchmark share one decoder: byte
// 0 picks the geometry, bytes 1–4 seed the head position and the base
// LBN, and every following 5-byte record [op, v0, v1, v2, c] adds one
// request to the current window or closes it. Successive windows are
// served back to back on the same two disks, so head state carries
// over.
const (
	sptfOpAdj   = 3 // the (1+v0%AdjSpan)-th adjacent block of the request v1|v2<<8 places back
	sptfOpDup   = 4 // exact duplicate of an earlier request of the window
	sptfOpSame  = 5 // same LBN as an earlier request, Count from c
	sptfOpChain = 6 // starts where the previous request ends
	sptfOpBreak = 7 // closes the window
	// ops 0–2 draw a fresh LBN from a span of 1<<(6+(op>>3)%20) blocks

	sptfScriptHeader = 5
	sptfScriptRecord = 5
)

var sptfScriptGeoms = []*Geometry{AtlasTenKIII(), CheetahThirtySixES(), SmallTestDisk()}

// decodeSPTFScript returns the script's geometry, its head-position
// seed and its non-empty windows. Every request fits the drive.
func decodeSPTFScript(script []byte) (g *Geometry, seed int64, windows [][]Request) {
	if len(script) < sptfScriptHeader {
		return nil, 0, nil
	}
	g = sptfScriptGeoms[int(script[0])%len(sptfScriptGeoms)]
	seed = int64(script[1]) | int64(script[2])<<8 | int64(script[3])<<16 | int64(script[4])<<24
	room := g.TotalBlocks() - 8 // every Count is at most 8
	base := rand.New(rand.NewSource(seed + 1)).Int63n(room)

	var win []Request
	for rec := script[sptfScriptHeader:]; len(rec) >= sptfScriptRecord; rec = rec[sptfScriptRecord:] {
		op, v, count := rec[0], int64(rec[1])|int64(rec[2])<<8|int64(rec[3])<<16, 1+int(rec[4]&7)
		switch code := op & 7; {
		case code == sptfOpBreak:
			if len(win) > 0 {
				windows = append(windows, win)
			}
			win = nil
		case code == sptfOpAdj && len(win) > 0:
			prev := win[len(win)-1-int(v>>8)%len(win)]
			if a, err := g.AdjacentBlock(prev.LBN, 1+int(rec[1])%g.AdjSpan()); err == nil && a <= room {
				win = append(win, Request{LBN: a, Count: count})
			}
		case code == sptfOpDup && len(win) > 0:
			win = append(win, win[v%int64(len(win))])
		case code == sptfOpSame && len(win) > 0:
			win = append(win, Request{LBN: win[v%int64(len(win))].LBN, Count: count})
		case code == sptfOpChain && len(win) > 0 && win[len(win)-1].LBN+int64(win[len(win)-1].Count) <= room:
			prev := win[len(win)-1]
			win = append(win, Request{LBN: prev.LBN + int64(prev.Count), Count: count})
		case code < sptfOpAdj:
			span := int64(1) << (6 + (op>>3)%20)
			off := (v<<1 | int64(rec[4]>>7)) % span
			win = append(win, Request{LBN: (base + off) % room, Count: count})
		}
	}
	if len(win) > 0 {
		windows = append(windows, win)
	}
	return g, seed, windows
}

// sptfReplays returns the windows a script's window is served as: as
// issued, then stably sorted by LBN — the order the planner issues in,
// with requests for one sector left in arrival order, so of any Count
// order.
func sptfReplays(win []Request) [2][]Request {
	sorted := slices.Clone(win)
	slices.SortStableFunc(sorted, func(a, b Request) int { return cmp.Compare(a.LBN, b.LBN) })
	return [2][]Request{win, sorted}
}

// runSPTFScript serves the script's windows, each as issued and then
// sorted (sptfReplays), with the production scheduler and with the
// reference and requires equal completions — same request, same cost
// breakdown, same finish time at every step — and equal head state
// after every window.
func runSPTFScript(t testing.TB, script []byte) {
	g, seed, windows := decodeSPTFScript(script)
	if g == nil {
		return
	}
	runSPTFWindows(t, g, seed, windows)
}

// runSPTFWindows is runSPTFScript on decoded windows.
func runSPTFWindows(t testing.TB, g *Geometry, seed int64, issued [][]Request) {
	var windows [][]Request
	for _, win := range issued {
		replays := sptfReplays(win)
		windows = append(windows, replays[:]...)
	}
	dNew, dRef := New(g), New(g)
	dNew.RandomizePosition(rand.New(rand.NewSource(seed)))
	dRef.RandomizePosition(rand.New(rand.NewSource(seed)))
	for w, win := range windows {
		got, err := dNew.ServeBatch(nil, win, SchedSPTF)
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		var want []Completion
		for start := 0; start < len(win); start += maxSPTFBatch {
			comps, err := serveSPTFRef(dRef, win[start:min(start+maxSPTFBatch, len(win))])
			if err != nil {
				t.Fatalf("window %d: reference: %v", w, err)
			}
			want = append(want, comps...)
		}
		if len(got) != len(want) {
			t.Fatalf("window %d: %d completions, reference %d", w, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s window %d (n=%d) pick %d: %+v, reference %+v", g.Name, w, len(win), i, got[i], want[i])
			}
		}
		if dNew.nowMs != dRef.nowMs || dNew.curTrack != dRef.curTrack || dNew.lastEnd != dRef.lastEnd || dNew.stats != dRef.stats {
			t.Fatalf("%s window %d: head state diverged from the reference", g.Name, w)
		}
	}
}

// randomSPTFScript draws a script of the given window sizes whose fresh
// LBNs fall in a span of 1<<(6+shift) blocks — a pile-up on one track
// at shift 0, a scatter over a whole zone and more at 19 — mixed with
// duplicates, same-LBN requests of another Count, continuations and
// adjacent blocks of earlier requests.
func randomSPTFScript(rng *rand.Rand, geom, shift int, windows ...int) []byte {
	script := []byte{byte(geom), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	for _, n := range windows {
		for i := 0; i < n; i++ {
			op := byte(shift << 3)
			switch roll := rng.Intn(20); roll {
			case 0, 1:
				op = sptfOpDup
			case 2, 3:
				op = sptfOpSame
			case 4, 5, 6:
				op = sptfOpChain
			case 7, 8:
				op = sptfOpAdj
			}
			script = append(script, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		script = append(script, sptfOpBreak, 0, 0, 0, 0)
	}
	return script
}

// multimapSPTFScript draws windows shaped like MultiMap's range
// queries: each window covers several basic cubes near one another on
// the drive, and in each cube it reads one Dim0 run (Count 2–8) per row
// of a K1 × K2 box of rows. The rows follow the cube's adjacency chains
// as core's buildChains lays them: a step along Dim1 is the next
// adjacent block of the row before, a step along Dim2 the K1-th adjacent
// block of the first row of the layer before. So the first row of a
// layer shares its angle with the second row of the layer before, on
// another track — the equal-angle tie across tracks that only this
// shape produces.
func multimapSPTFScript(rng *rand.Rand, geom int, windows ...int) []byte {
	depth := sptfScriptGeoms[geom].AdjSpan()
	script := []byte{byte(geom), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}
	for _, n := range windows {
		// The window's cubes lie within 2¹⁸…2²¹ blocks of one another.
		fresh := byte((12 + rng.Intn(4)) << 3)
		k1 := 2 + rng.Intn(min(depth/2, 24)-1)
		k2 := depth / k1
		for left := n; left > 0; {
			b1, b2 := 1+rng.Intn(k1), 1+rng.Intn(k2)
			c := byte(1 + rng.Intn(7))
			script = append(script, fresh, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), c|byte(rng.Intn(2))<<7)
			left--
			for row := 1; row < b1*b2 && left > 0; row++ {
				k, back := 1, 0
				if row%b1 == 0 {
					k, back = k1, b1-1
				}
				script = append(script, sptfOpAdj, byte(k-1), byte(back), byte(back>>8), c)
				left--
			}
		}
		script = append(script, sptfOpBreak, 0, 0, 0, 0)
	}
	return script
}

// sptfTestScripts returns TestSPTFMatchesRef's scripts: random windows
// — sizes 2…600 and one past maxSPTFBatch, spans 2⁶…2²⁵, three
// back-to-back windows per run — and MultiMap-shaped windows of
// 100…1300 requests, on every geometry.
func sptfTestScripts() [][]byte {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	var scripts [][]byte
	for geom := range sptfScriptGeoms {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(geom*1000 + trial)))
			sizes := []int{2 + rng.Intn(599), 2 + rng.Intn(599), 2 + rng.Intn(60)}
			scripts = append(scripts,
				randomSPTFScript(rng, geom, trial%20, sizes...),
				multimapSPTFScript(rng, geom, 100+rng.Intn(1201), 100+rng.Intn(1201)))
		}
		rng := rand.New(rand.NewSource(int64(geom)))
		scripts = append(scripts, randomSPTFScript(rng, geom, 12+geom, maxSPTFBatch+150, 40))
	}
	return scripts
}

// TestSPTFMatchesRef replays sptfTestScripts, each window as issued and
// sorted, through the production scheduler and the reference.
func TestSPTFMatchesRef(t *testing.T) {
	for _, script := range sptfTestScripts() {
		runSPTFScript(t, script)
	}
}

// TestSPTFLongRequestsMatchRef covers what scripts cannot express:
// requests of up to three tracks, so that a transfer ends tracks past
// the one its pick started on. Each window lays three chains of
// requests, each starting where the one before ends, over the same few
// tracks and shuffles them, so a continuation can start beyond the last
// pick's track and the next track that holds a request.
func TestSPTFLongRequestsMatchRef(t *testing.T) {
	for geom, g := range sptfScriptGeoms {
		rng := rand.New(rand.NewSource(int64(100 + geom)))
		spt := g.TrackLen(0) // the longest track: zones shrink inward
		for trial := 0; trial < 20; trial++ {
			var windows [][]Request
			for w := 0; w < 3; w++ {
				base := rng.Int63n(g.TotalBlocks() - int64(200*spt))
				var win []Request
				for chain := 0; chain < 3; chain++ {
					cur := base + rng.Int63n(int64(2*spt))
					for n := 5 + rng.Intn(20); n > 0; n-- {
						win = append(win, Request{LBN: cur, Count: 1 + rng.Intn(3*g.TrackLen(cur))})
						cur += int64(win[len(win)-1].Count)
					}
				}
				rng.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
				windows = append(windows, win)
			}
			runSPTFWindows(t, g, int64(trial), windows)
		}
	}
}

// TestSPTFIndexMatchesSort holds the index newSPTF builds — decoded by
// stepping, and not sorted when the window is in order — equal to the
// sort-built one for every window of sptfTestScripts, as issued and
// sorted.
func TestSPTFIndexMatchesSort(t *testing.T) {
	for _, script := range sptfTestScripts() {
		g, _, windows := decodeSPTFScript(script)
		d := New(g)
		for w, win := range windows {
			for k, reqs := range sptfReplays(win) {
				got, want := newSPTF(d, reqs), newSPTFBySort(d, reqs)
				if !slices.Equal(got.ents, want.ents) || !slices.Equal(got.tracks, want.tracks) || !slices.Equal(got.bands, want.bands) {
					t.Fatalf("%s window %d replay %d (n=%d): index differs from the sort-built one", g.Name, w, k, len(reqs))
				}
			}
		}
	}
}

// TestSPTFAscendingSkipsSort pins the fast build itself, which the
// oracle cannot see because the fallback sort produces the same index:
// windows ascending by (LBN, Count) — MultiMap-shaped ones and pile-ups
// on a few tracks, whose runs wrap the skew origin — decode straight
// into key order, and the same window with one sector's Counts inverted
// falls back to the sort.
func TestSPTFAscendingSkipsSort(t *testing.T) {
	byLBNCount := func(a, b Request) int {
		if c := cmp.Compare(a.LBN, b.LBN); c != 0 {
			return c
		}
		return cmp.Compare(a.Count, b.Count)
	}
	rng := rand.New(rand.NewSource(11))
	wrapped := 0
	for geom := range sptfScriptGeoms {
		for trial := 0; trial < 20; trial++ {
			for _, script := range [][]byte{
				multimapSPTFScript(rng, geom, 100+rng.Intn(500)),
				randomSPTFScript(rng, geom, trial%4, 20+rng.Intn(300)),
			} {
				g, _, windows := decodeSPTFScript(script)
				if len(windows) == 0 {
					continue
				}
				win := windows[0]
				slices.SortStableFunc(win, byLBNCount)
				ents := make([]sptfEntry, len(win))
				if !decodeSPTF(g, win, ents) {
					t.Fatalf("%s: ascending window of %d requests fell back to the sort", g.Name, len(win))
				}
				if !slices.IsSortedFunc(ents, compareSPTFEntries) {
					t.Fatalf("%s: ascending window of %d requests decoded out of key order", g.Name, len(win))
				}
				for i := 1; i < len(ents); i++ {
					if ents[i].track == ents[i-1].track && ents[i].req.LBN < ents[i-1].req.LBN {
						wrapped++
						break
					}
				}

				k := rng.Intn(len(win))
				inverted := slices.Insert(slices.Clone(win), k, Request{LBN: win[k].LBN, Count: win[k].Count + 1})
				if decodeSPTF(g, inverted, make([]sptfEntry, len(inverted))) {
					t.Fatalf("%s: window with Counts %d, %d on one sector skipped the sort", g.Name, inverted[k].Count, inverted[k+1].Count)
				}
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no window had a track run that wraps the skew origin")
	}
}

func FuzzSPTF(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for geom := range sptfScriptGeoms {
		f.Add(randomSPTFScript(rng, geom, 0, 40, 40))
		f.Add(randomSPTFScript(rng, geom, 8, 100, 30, 30))
		f.Add(randomSPTFScript(rng, geom, 19, 200))
		f.Add(multimapSPTFScript(rng, geom, 300, 100))
		// Windows alternating across sptfKeep on one drive: one within it
		// is built in the slabs the last such window left, one past it in
		// its own, so a stale kept entry shows in the next window's picks.
		f.Add(randomSPTFScript(rng, geom, 8, sptfKeep+44, 40, sptfKeep+1, sptfKeep-1))
		f.Add(multimapSPTFScript(rng, geom, sptfKeep+14, 100, sptfKeep+44))
	}
	// Windows past maxSPTFBatch are TestSPTFMatchesRef's: scripts that
	// long make every exec, and the fuzzer's minimizer, slow.
	const maxScript = sptfScriptHeader + sptfScriptRecord*1024
	f.Fuzz(func(t *testing.T, script []byte) { runSPTFScript(t, script[:min(len(script), maxScript)]) })
}

// TestWaitFromMsMatchesRef holds the production rotational wait to the
// reference's copy, float bits and all: for every sector angle of every
// zone of every model, from random spindle phases, from phase 0 and the
// phase just below 1, and from phases within rotAngleEps either side of
// the target, where the epsilon decides between no wait and a full
// rotation.
func TestWaitFromMsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cyclic := func(x float64) float64 {
		x -= math.Floor(x)
		if x >= 1 {
			x = math.Nextafter(1, 0)
		}
		return x
	}
	checked := 0
	for _, name := range ModelNames() {
		g, err := ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for zi := range g.Zones {
			spt := g.Zones[zi].SectorsPerTrack
			random := make([]float64, 16)
			for i := range random {
				random[i] = rng.Float64()
			}
			for k := 0; k < spt; k++ {
				target := float64(k) / float64(spt)
				phases := append([]float64{0, math.Nextafter(1, 0),
					target, cyclic(math.Nextafter(target, -1)), cyclic(math.Nextafter(target, 2))}, random...)
				for _, eps := range []float64{rotAngleEps / 2, rotAngleEps, 2 * rotAngleEps} {
					phases = append(phases, cyclic(target-eps), cyclic(target+eps))
				}
				for _, phase := range phases {
					got, want := g.waitFromMs(phase, target), waitFromMsRef(g, phase, target)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s zone %d: waitFromMs(%v, %d/%d) = %v, reference %v", name, zi, phase, k, spt, got, want)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d (phase, angle) pairs bit-equal", checked)
}

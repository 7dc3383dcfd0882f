package disk

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the map-based SPTF scheduler that sptf.go replaced,
// verbatim but for two things: its names carry a Ref, and each track is
// sorted with a stable sort, so that requests equal in (angle, LBN,
// Count) keep their arrival order — the tie the unstable sort left to
// chance and the production scheduler now specifies. It is the oracle
// of TestSPTFMatchesRef and FuzzSPTF: schedules must be equal
// completion for completion, because simulated time depends on every
// pick.

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
// honour rotateWaitMs's epsilon for exact continuations.
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
	e, w := succ, g.rotateWaitMs(arriveMs, succ.angle)
	if pred != nil && pred != succ {
		if pw := g.rotateWaitMs(arriveMs, pred.angle); pw < w {
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
			best, bestCost = e, d.positioningEstimateMs(e.req)
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
		cost, err := d.Access(reqs[0])
		if err != nil {
			return nil, err
		}
		return append(out, Completion{Req: reqs[0], Cost: cost, FinishMs: d.nowMs}), nil
	}
	s := newSPTFRef(d, reqs)
	for s.live > 0 {
		e := s.pop()
		cost, err := d.Access(e.req)
		if err != nil {
			return nil, err
		}
		out = append(out, Completion{Req: e.req, Cost: cost, FinishMs: d.nowMs})
	}
	return out, nil
}

// An SPTF script is the byte form of a differential run, so that the
// randomized test and the fuzzer share one decoder: byte 0 picks the
// geometry, bytes 1–4 seed the head position and the base LBN, and
// every following 5-byte record [op, v0, v1, v2, c] adds one request to
// the current window or closes it. Successive windows are served back
// to back on the same two disks, so head state carries over.
const (
	sptfOpDup   = 4 // exact duplicate of an earlier request of the window
	sptfOpSame  = 5 // same LBN as an earlier request, Count from c
	sptfOpChain = 6 // starts where the previous request ends
	sptfOpBreak = 7 // closes the window
	// ops 0–3 draw a fresh LBN from a span of 1<<(6+(op>>3)%20) blocks

	sptfScriptHeader = 5
	sptfScriptRecord = 5
)

var sptfScriptGeoms = []*Geometry{AtlasTenKIII(), CheetahThirtySixES(), SmallTestDisk()}

// runSPTFScript serves the script's windows with the production
// scheduler and with the reference and requires equal completions —
// same request, same cost breakdown, same finish time at every step —
// and equal head state after every window.
func runSPTFScript(t testing.TB, script []byte) {
	if len(script) < sptfScriptHeader {
		return
	}
	g := sptfScriptGeoms[int(script[0])%len(sptfScriptGeoms)]
	seed := int64(script[1]) | int64(script[2])<<8 | int64(script[3])<<16 | int64(script[4])<<24
	dNew, dRef := New(g), New(g)
	dNew.RandomizePosition(rand.New(rand.NewSource(seed)))
	dRef.RandomizePosition(rand.New(rand.NewSource(seed)))
	room := g.TotalBlocks() - 8 // every Count is at most 8
	base := rand.New(rand.NewSource(seed + 1)).Int63n(room)

	windows := 0
	serve := func(win []Request) {
		if len(win) == 0 {
			return
		}
		got, err := dNew.ServeBatch(win, SchedSPTF)
		if err != nil {
			t.Fatalf("window %d: %v", windows, err)
		}
		var want []Completion
		for start := 0; start < len(win); start += maxSPTFBatch {
			comps, err := serveSPTFRef(dRef, win[start:min(start+maxSPTFBatch, len(win))])
			if err != nil {
				t.Fatalf("window %d: reference: %v", windows, err)
			}
			want = append(want, comps...)
		}
		if len(got) != len(want) {
			t.Fatalf("window %d: %d completions, reference %d", windows, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s window %d (n=%d) pick %d: %+v, reference %+v", g.Name, windows, len(win), i, got[i], want[i])
			}
		}
		if dNew.nowMs != dRef.nowMs || dNew.curTrack != dRef.curTrack || dNew.lastEnd != dRef.lastEnd || dNew.stats != dRef.stats {
			t.Fatalf("%s window %d: head state diverged from the reference", g.Name, windows)
		}
		windows++
	}

	var win []Request
	for rec := script[sptfScriptHeader:]; len(rec) >= sptfScriptRecord; rec = rec[sptfScriptRecord:] {
		op, v, count := rec[0], int64(rec[1])|int64(rec[2])<<8|int64(rec[3])<<16, 1+int(rec[4]&7)
		switch code := op & 7; {
		case code == sptfOpBreak:
			serve(win)
			win = win[:0]
		case code == sptfOpDup && len(win) > 0:
			win = append(win, win[v%int64(len(win))])
		case code == sptfOpSame && len(win) > 0:
			win = append(win, Request{LBN: win[v%int64(len(win))].LBN, Count: count})
		case code == sptfOpChain && len(win) > 0 && win[len(win)-1].LBN+int64(win[len(win)-1].Count) <= room:
			prev := win[len(win)-1]
			win = append(win, Request{LBN: prev.LBN + int64(prev.Count), Count: count})
		case code < sptfOpDup:
			span := int64(1) << (6 + (op>>3)%20)
			off := (v<<1 | int64(rec[4]>>7)) % span
			win = append(win, Request{LBN: (base + off) % room, Count: count})
		}
	}
	serve(win)
}

// randomSPTFScript draws a script of the given window sizes whose fresh
// LBNs fall in a span of 1<<(6+shift) blocks — a pile-up on one track
// at shift 0, a scatter over a whole zone and more at 19 — mixed with
// duplicates, same-LBN requests of another Count and continuations.
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
			}
			script = append(script, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		script = append(script, sptfOpBreak, 0, 0, 0, 0)
	}
	return script
}

// TestSPTFMatchesRef replays random windows — sizes 2…600 and one past
// maxSPTFBatch, spans 2⁶…2²⁵, three back-to-back windows per run, every
// geometry — through the production scheduler and the reference.
func TestSPTFMatchesRef(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	for geom := range sptfScriptGeoms {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(geom*1000 + trial)))
			sizes := []int{2 + rng.Intn(599), 2 + rng.Intn(599), 2 + rng.Intn(60)}
			runSPTFScript(t, randomSPTFScript(rng, geom, trial%20, sizes...))
		}
		rng := rand.New(rand.NewSource(int64(geom)))
		runSPTFScript(t, randomSPTFScript(rng, geom, 12+geom, maxSPTFBatch+150, 40))
	}
}

func FuzzSPTF(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for geom := range sptfScriptGeoms {
		f.Add(randomSPTFScript(rng, geom, 0, 40, 40))
		f.Add(randomSPTFScript(rng, geom, 8, 100, 30, 30))
		f.Add(randomSPTFScript(rng, geom, 19, 200))
	}
	// Windows past maxSPTFBatch are TestSPTFMatchesRef's: scripts that
	// long make every exec, and the fuzzer's minimizer, slow.
	const maxScript = sptfScriptHeader + sptfScriptRecord*1024
	f.Fuzz(func(t *testing.T, script []byte) { runSPTFScript(t, script[:min(len(script), maxScript)]) })
}

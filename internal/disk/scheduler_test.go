package disk

import (
	"math/rand"
	"testing"
)

func TestServeBatchFIFOOrder(t *testing.T) {
	d := New(SmallTestDisk())
	reqs := []Request{{LBN: 100, Count: 2}, {LBN: 50, Count: 1}, {LBN: 900, Count: 3}}
	comps, err := d.ServeBatch(reqs, SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != len(reqs) {
		t.Fatalf("got %d completions, want %d", len(comps), len(reqs))
	}
	for i := range reqs {
		if comps[i].Req != reqs[i] {
			t.Fatalf("FIFO reordered requests: %v", comps)
		}
	}
	for i := 1; i < len(comps); i++ {
		if comps[i].FinishMs <= comps[i-1].FinishMs {
			t.Fatalf("finish times not increasing")
		}
	}
}

func TestServeBatchValidatesUpfront(t *testing.T) {
	d := New(SmallTestDisk())
	bad := []Request{{LBN: 0, Count: 1}, {LBN: -4, Count: 1}}
	if _, err := d.ServeBatch(bad, SchedSPTF); err == nil {
		t.Fatal("invalid request accepted")
	}
	if d.Stats().Requests != 0 {
		t.Fatal("batch partially executed despite validation error")
	}
}

// TestSPTFFindsSemiSequentialPath is the paper's §5.2 scenario: the
// storage manager issues a beam query's blocks unsorted; the disk's
// internal scheduler must discover the efficient semi-sequential order.
func TestSPTFFindsSemiSequentialPath(t *testing.T) {
	g := AtlasTenKIII()
	// Build a semi-sequential chain of 64 blocks.
	chain := make([]Request, 0, 64)
	cur := int64(20000)
	chain = append(chain, Request{LBN: cur, Count: 1})
	for i := 0; i < 63; i++ {
		a, err := g.AdjacentBlock(cur, 1)
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, Request{LBN: a, Count: 1})
		cur = a
	}
	shuffled := make([]Request, len(chain))
	copy(shuffled, chain)
	rand.New(rand.NewSource(17)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	dS := New(g)
	compsS, err := dS.ServeBatch(shuffled, SchedSPTF)
	if err != nil {
		t.Fatal(err)
	}
	sptfMs := dS.NowMs()

	dF := New(g)
	if _, err := dF.ServeBatch(shuffled, SchedFIFO); err != nil {
		t.Fatal(err)
	}
	fifoMs := dF.NowMs()

	if sptfMs >= fifoMs/2 {
		t.Errorf("SPTF %.1f ms vs FIFO %.1f ms on shuffled semi-seq chain: want >2x win", sptfMs, fifoMs)
	}
	// SPTF should reconstruct (nearly) the chain order: per-request cost
	// about one semi-seq step after the first.
	perHop := (sptfMs - compsS[0].FinishMs) / float64(len(chain)-1)
	if model := g.SemiSeqStepMs(20000); perHop > model*1.25 {
		t.Errorf("SPTF per-hop %.3f ms, semi-seq model %.3f: path not found", perHop, model)
	}
}

func TestSPTFNotWorseThanFIFOOnRandom(t *testing.T) {
	g := CheetahThirtySixES()
	rng := rand.New(rand.NewSource(23))
	reqs := make([]Request, 120)
	for i := range reqs {
		reqs[i] = Request{LBN: rng.Int63n(g.TotalBlocks()), Count: 1}
	}
	dS, dF := New(g), New(g)
	if _, err := dS.ServeBatch(reqs, SchedSPTF); err != nil {
		t.Fatal(err)
	}
	if _, err := dF.ServeBatch(reqs, SchedFIFO); err != nil {
		t.Fatal(err)
	}
	if dS.NowMs() > dF.NowMs()*1.02 {
		t.Errorf("SPTF %.1f ms worse than FIFO %.1f ms on random batch", dS.NowMs(), dF.NowMs())
	}
}

func TestLargeBatchWindowedSPTF(t *testing.T) {
	// Oversized SPTF batches are served in windows: every request is
	// still serviced exactly once, and requests never migrate across
	// window boundaries.
	d := New(SmallTestDisk())
	n := maxSPTFBatch + 10
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{LBN: int64(i % 1000), Count: 1}
	}
	comps, err := d.ServeBatch(reqs, SchedSPTF)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != n {
		t.Fatalf("served %d of %d requests", len(comps), n)
	}
	// The tail window (last 10 requests) must be the original tail set.
	want := map[Request]int{}
	for _, r := range reqs[maxSPTFBatch:] {
		want[r]++
	}
	for _, c := range comps[maxSPTFBatch:] {
		want[c.Req]--
	}
	for r, cnt := range want {
		if cnt != 0 {
			t.Fatalf("request %v leaked across the window boundary", r)
		}
	}
}

// serveSPTFGreedy is the O(n²) reference scheduler: before every pick it
// re-estimates the positioning cost of every pending request and services
// the argmin. The production scheduler must match its schedules.
func serveSPTFGreedy(d *Disk, reqs []Request) ([]Completion, error) {
	pending := make([]Request, len(reqs))
	copy(pending, reqs)
	out := make([]Completion, 0, len(reqs))
	for len(pending) > 0 {
		best, bestCost := 0, positioningEstimateMsRef(d, pending[0])
		for i := 1; i < len(pending); i++ {
			if c := positioningEstimateMsRef(d, pending[i]); c < bestCost {
				best, bestCost = i, c
			}
		}
		r := pending[best]
		pending[best] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		cost, err := d.Access(r)
		if err != nil {
			return nil, err
		}
		out = append(out, Completion{Req: r, Cost: cost, FinishMs: d.nowMs})
	}
	return out, nil
}

// TestSPTFMatchesGreedyReference is the scheduler-equivalence property
// test: across geometries, batch shapes, and head states, the production
// SPTF must service exactly the reference's request set with total time
// within a small tolerance (exact ties may break differently).
func TestSPTFMatchesGreedyReference(t *testing.T) {
	// Exact-cost ties (same seek plateau, same discrete sector angle) can
	// break differently between the two implementations and compound, so
	// the tolerance is workload-dependent: tight on the paper's drives,
	// looser on the toy geometry where nearly everything ties.
	geoms := []struct {
		g   *Geometry
		tol float64
	}{
		{SmallTestDisk(), 0.05},
		{AtlasTenKIII(), 0.01},
		{CheetahThirtySixES(), 0.01},
	}
	for gi, gt := range geoms {
		g, tol := gt.g, gt.tol
		for trial := 0; trial < 8; trial++ {
			rng := rand.New(rand.NewSource(int64(gi*100 + trial)))
			n := 1 + rng.Intn(500)
			reqs := make([]Request, n)
			for i := range reqs {
				switch trial % 3 {
				case 0: // uniform random over the drive
					reqs[i] = Request{LBN: rng.Int63n(g.TotalBlocks() - 8), Count: 1 + rng.Intn(8)}
				case 1: // compact band (MultiMap's windows)
					span := int64(20000)
					if span > g.TotalBlocks()/2 {
						span = g.TotalBlocks() / 2
					}
					base := rng.Int63n(g.TotalBlocks() - span)
					reqs[i] = Request{LBN: base + rng.Int63n(span), Count: 1}
				default: // heavy duplication on few tracks
					span := int64(2000)
					if span > g.TotalBlocks() {
						span = g.TotalBlocks()
					}
					reqs[i] = Request{LBN: rng.Int63n(span), Count: 1}
				}
			}
			dNew, dRef := New(g), New(g)
			dNew.RandomizePosition(rand.New(rand.NewSource(int64(trial))))
			dRef.RandomizePosition(rand.New(rand.NewSource(int64(trial))))

			compsNew := dNew.serveSPTF(reqs)
			compsRef, err := serveSPTFGreedy(dRef, reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(compsNew) != n || len(compsRef) != n {
				t.Fatalf("%s trial %d: served %d/%d of %d", g.Name, trial, len(compsNew), len(compsRef), n)
			}
			seen := map[Request]int{}
			for _, c := range compsNew {
				seen[c.Req]++
			}
			for _, c := range compsRef {
				seen[c.Req]--
			}
			for r, cnt := range seen {
				if cnt != 0 {
					t.Fatalf("%s trial %d: request %v served a different number of times", g.Name, trial, r)
				}
			}
			newMs, refMs := dNew.NowMs(), dRef.NowMs()
			if diff := newMs - refMs; diff > refMs*tol+1e-6 || diff < -refMs*tol-1e-6 {
				t.Errorf("%s trial %d (n=%d): new SPTF %.3f ms vs greedy %.3f ms (%.2f%%)",
					g.Name, trial, n, newMs, refMs, 100*(newMs-refMs)/refMs)
			}
		}
	}
}

// TestSPTFPicksTrueArgmin checks the scheduler's core invariant
// directly: every pick's estimated positioning cost equals the
// brute-force minimum over the requests still pending at that moment.
func TestSPTFPicksTrueArgmin(t *testing.T) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(99))
	n := 300
	reqs := make([]Request, n)
	for i := range reqs {
		base := rng.Int63n(g.TotalBlocks() - 40000)
		reqs[i] = Request{LBN: base + rng.Int63n(40000), Count: 1 + rng.Intn(4)}
	}
	d := New(g)
	s := newSPTF(d, reqs)
	pending := map[int]bool{}
	for i := range reqs {
		pending[i] = true
	}
	for s.live > 0 {
		r, _ := s.pop()
		got := positioningEstimateMsRef(d, r)
		want := -1.0
		for i := range pending {
			if c := positioningEstimateMsRef(d, reqs[i]); want < 0 || c < want {
				want = c
			}
		}
		if got > want+1e-9 {
			t.Fatalf("picked cost %.6f ms, brute-force min %.6f ms (pending %d)",
				got, want, len(pending))
		}
		// Drop one pending instance matching the pick.
		for i := range pending {
			if reqs[i] == r {
				delete(pending, i)
				break
			}
		}
		if _, err := d.Access(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(pending) != 0 {
		t.Fatalf("%d requests never served", len(pending))
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SchedPolicy
	}{{"fifo", SchedFIFO}, {"sptf", SchedSPTF}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	// The C-LOOK policy is gone: its names must fail, not fall back.
	for _, in := range []string{"lifo", "elevator", "clook", "c-look"} {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", in)
		}
	}
}

func TestBatchTimeMs(t *testing.T) {
	d := New(SmallTestDisk())
	comps, err := d.ServeBatch([]Request{{LBN: 10, Count: 1}, {LBN: 500, Count: 2}}, SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	want := comps[0].Cost.TotalMs() + comps[1].Cost.TotalMs()
	if got := BatchTimeMs(comps); got != want {
		t.Fatalf("BatchTimeMs=%v, want %v", got, want)
	}
	if got := d.Stats().BusyMs; got != want {
		t.Fatalf("stats BusyMs=%v, want %v", got, want)
	}
}

func TestSchedPolicyString(t *testing.T) {
	if SchedFIFO.String() != "fifo" || SchedSPTF.String() != "sptf" {
		t.Error("policy names wrong")
	}
	if SchedPolicy(99).String() != "unknown" {
		t.Error("unknown policy name wrong")
	}
}

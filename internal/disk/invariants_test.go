package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestClockMonotoneQuick: the drive clock never goes backwards and each
// access's cost equals the clock advance.
func TestClockMonotoneQuick(t *testing.T) {
	g := AtlasTenKIII()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(g)
		prev := 0.0
		for i := 0; i < 50; i++ {
			before := d.NowMs()
			cost, err := d.Access(Request{LBN: rng.Int63n(g.TotalBlocks() - 64), Count: 1 + rng.Intn(64)})
			if err != nil {
				return false
			}
			if d.NowMs() < before || d.NowMs() < prev {
				return false
			}
			if diff := d.NowMs() - before - cost.TotalMs(); diff > 1e-9 || diff < -1e-9 {
				return false
			}
			prev = d.NowMs()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAccessCostBoundsQuick: any single-block access costs at least one
// sector transfer and at most command + full-stroke seek + one rotation
// + transfer.
func TestAccessCostBoundsQuick(t *testing.T) {
	for _, g := range []*Geometry{AtlasTenKIII(), CheetahThirtySixES()} {
		g := g
		d := New(g)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			lbn := rng.Int63n(g.TotalBlocks())
			cost, err := d.Access(Request{LBN: lbn, Count: 1})
			if err != nil {
				return false
			}
			lo := g.RotationMs() / float64(g.ZoneByIndex(0).SectorsPerTrack)
			hi := g.CommandMs + g.SeekMaxMs + g.RotationMs() + g.RotationMs()/400
			return cost.TotalMs() >= lo*0.99 && cost.TotalMs() <= hi
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

// TestSequentialContinuationIsFree: back-to-back requests at
// consecutive LBNs on one track cost pure transfer — the prefetch
// buffer discount that makes per-cell and coalesced issue equivalent.
func TestSequentialContinuationIsFree(t *testing.T) {
	g := AtlasTenKIII()
	d := New(g)
	start := int64(5000)
	if _, err := d.Access(Request{LBN: start, Count: 1}); err != nil {
		t.Fatal(err)
	}
	sector := g.RotationMs() / float64(g.TrackLen(start))
	for i := int64(1); i <= 64; i++ {
		cost, err := d.Access(Request{LBN: start + i, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cost.CommandMs != 0 {
			t.Fatalf("continuation %d paid command overhead", i)
		}
		if cost.TotalMs() > sector*1.01 {
			t.Fatalf("continuation %d cost %.4f ms, want one sector %.4f", i, cost.TotalMs(), sector)
		}
	}
}

// TestZoneCrossingStream: a sequential transfer across a zone boundary
// (track length changes) stays near media rate.
func TestZoneCrossingStream(t *testing.T) {
	g := SmallTestDisk()
	d := New(g)
	z0 := g.ZoneByIndex(0)
	boundary := z0.StartLBN() + int64(z0.Cylinders()*g.Surfaces)*int64(z0.SectorsPerTrack)
	start := boundary - 100
	cost, err := d.Access(Request{LBN: start, Count: 200})
	if err != nil {
		t.Fatal(err)
	}
	// 200 sectors across ~6 tracks: transfer plus a handful of switch
	// waits, never extra full rotations beyond skew alignment.
	maxOk := cost.TransferMs + 8*(g.HeadSwitchMs+g.RotationMs()*0.35) + g.CommandMs + g.SeekAvgMs + g.RotationMs()
	if cost.TotalMs() > maxOk {
		t.Fatalf("zone-crossing stream cost %.2f ms, bound %.2f", cost.TotalMs(), maxOk)
	}
	p, _ := g.Decode(start + 199)
	if p.Zone != 1 {
		t.Fatalf("stream did not cross the zone boundary")
	}
}

// TestRepeatedBatchesDeterministic: identical request batches on fresh
// drives produce identical service times (the simulator is exactly
// reproducible).
func TestRepeatedBatchesDeterministic(t *testing.T) {
	g := CheetahThirtySixES()
	rng := rand.New(rand.NewSource(11))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{LBN: rng.Int63n(g.TotalBlocks()), Count: 1}
	}
	run := func() float64 {
		d := New(g)
		if _, err := d.ServeBatch(nil, reqs, SchedSPTF); err != nil {
			t.Fatal(err)
		}
		return d.NowMs()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic batch service: %.6f vs %.6f", a, b)
	}
}

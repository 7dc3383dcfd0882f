package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAdjacentBlockTrackPlacement: the k-th adjacent block lives exactly
// k tracks below its parent.
func TestAdjacentBlockTrackPlacement(t *testing.T) {
	for _, g := range testGeometries() {
		g := g
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			// Keep away from the disk end so all D exist.
			maxTrack := g.TotalTracks() - g.AdjSpan() - 1
			lbn := rng.Int63n(g.TotalBlocks())
			p, _ := g.Decode(lbn)
			if p.Track >= maxTrack {
				return true
			}
			k := 1 + rng.Intn(g.AdjSpan())
			a, err := g.AdjacentBlock(lbn, k)
			if err != nil {
				return false
			}
			pa, err := g.Decode(a)
			return err == nil && pa.Track == p.Track+k
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

// TestAdjacencyNoRotationalLatency is the defining invariant (Fig. 1b):
// reading any adjacent block immediately after its parent costs the
// settle time plus less than a handful of sector times — rotational
// latency is eliminated.
func TestAdjacencyNoRotationalLatency(t *testing.T) {
	for _, g := range []*Geometry{AtlasTenKIII(), CheetahThirtySixES(), SmallTestDisk()} {
		d := New(g)
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 60; trial++ {
			lbn := rng.Int63n(g.TotalBlocks() / 2) // stay clear of the end
			k := 1 + rng.Intn(g.AdjSpan())
			a, err := g.AdjacentBlock(lbn, k)
			if err != nil {
				t.Fatalf("%s: AdjacentBlock(%d,%d): %v", g.Name, lbn, k, err)
			}
			if _, err := d.Access(Request{LBN: lbn, Count: 1}); err != nil {
				t.Fatal(err)
			}
			cost, err := d.Access(Request{LBN: a, Count: 1})
			if err != nil {
				t.Fatal(err)
			}
			sector := g.RotationMs() / float64(g.TrackLen(a))
			// Command + seek + rotational wait must land exactly in the
			// adjacency window: settle + at most the guard rotation.
			pos := cost.CommandMs + cost.SeekMs + cost.RotateMs
			lo := g.CommandMs + g.SettleMs - 1e-9
			hi := g.CommandMs + g.SettleMs + float64(adjGuardSectors+2)*sector
			if pos < lo || pos > hi {
				t.Fatalf("%s: k=%d positioning %.4f ms, want [cmd+settle=%.2f, +%d sectors=%.4f] (seek %.3f rot %.3f)",
					g.Name, k, pos, g.CommandMs+g.SettleMs, adjGuardSectors+2, hi, cost.SeekMs, cost.RotateMs)
			}
		}
	}
}

// TestAdjacencyConstantAngularOffset: all D adjacent blocks sit at the
// same angular offset from the parent (paper §3.1), modulo the sector
// rounding of their own zone.
func TestAdjacencyConstantAngularOffset(t *testing.T) {
	g := AtlasTenKIII()
	lbn := int64(1_000_000)
	p, _ := g.Decode(lbn)
	parent := g.angleOfSectorStart(p.Track, p.Sector)
	adjs, err := g.Adjacent(lbn, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(adjs) != 128 {
		t.Fatalf("want 128 adjacent blocks, got %d", len(adjs))
	}
	var first float64
	for i, a := range adjs {
		pa, _ := g.Decode(a)
		off := g.angleOfSectorStart(pa.Track, pa.Sector) - parent
		if off < 0 {
			off += 1
		}
		if i == 0 {
			first = off
			continue
		}
		sector := 1.0 / float64(g.TrackLen(a))
		if diff := off - first; diff < -sector || diff > sector {
			t.Fatalf("adjacent %d: angular offset %.5f differs from first %.5f by more than a sector",
				i+1, off, first)
		}
	}
}

// TestSemiSequentialPath: traversing successive first adjacent blocks
// achieves the semi-sequential rate — every hop costs about
// SemiSeqStepMs, four-plus times better than a rotational-latency hop.
func TestSemiSequentialPath(t *testing.T) {
	for _, g := range []*Geometry{AtlasTenKIII(), CheetahThirtySixES()} {
		d := New(g)
		lbn := int64(5000)
		if _, err := d.Access(Request{LBN: lbn, Count: 1}); err != nil {
			t.Fatal(err)
		}
		const hops = 200
		start := d.NowMs()
		cur := lbn
		for i := 0; i < hops; i++ {
			a, err := g.AdjacentBlock(cur, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Access(Request{LBN: a, Count: 1}); err != nil {
				t.Fatal(err)
			}
			cur = a
		}
		perHop := (d.NowMs() - start) / hops
		model := g.SemiSeqStepMs(lbn)
		if perHop > model*1.10 || perHop < g.SettleMs {
			t.Errorf("%s: semi-seq hop %.4f ms, model %.4f, settle %.2f", g.Name, perHop, model, g.SettleMs)
		}
		// The paper: semi-sequential clearly beats rotational-latency
		// access (a factor of ~4 before command overheads).
		rotHop := g.CommandMs + g.RotationMs()/2
		if perHop > rotHop*0.55 {
			t.Errorf("%s: semi-seq hop %.3f ms not clearly better than rotational %.3f", g.Name, perHop, rotHop)
		}
	}
}

// TestSemiSequentialDeepStride: hops of the Dth adjacent block cost the
// same as hops of the 1st (paper: either path achieves equal bandwidth).
func TestSemiSequentialDeepStride(t *testing.T) {
	g := AtlasTenKIII()
	const hops = 64
	perHop := func(stride int) float64 {
		d := New(g)
		cur := int64(9000)
		if _, err := d.Access(Request{LBN: cur, Count: 1}); err != nil {
			t.Fatal(err)
		}
		start := d.NowMs()
		for i := 0; i < hops; i++ {
			a, err := g.AdjacentBlock(cur, stride)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.Access(Request{LBN: a, Count: 1}); err != nil {
				t.Fatal(err)
			}
			cur = a
		}
		return (d.NowMs() - start) / hops
	}
	h1 := perHop(1)
	hD := perHop(128)
	if hD > h1*1.05 || h1 > hD*1.05 {
		t.Errorf("stride-1 hop %.4f ms vs stride-128 hop %.4f ms: want equal cost", h1, hD)
	}
}

func TestAdjacentDepthValidation(t *testing.T) {
	g := AtlasTenKIII()
	if _, err := g.AdjacentBlock(0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := g.AdjacentBlock(0, g.AdjSpan()+1); err == nil {
		t.Error("k beyond span accepted")
	}
	if _, err := g.Adjacent(0, 0); err == nil {
		t.Error("d=0 accepted")
	}
	if _, err := g.Adjacent(-5, 4); err == nil {
		t.Error("negative LBN accepted")
	}
}

func TestAdjacentNearDiskEnd(t *testing.T) {
	g := SmallTestDisk()
	// A block on the second-to-last track has exactly one adjacent block.
	last := g.TotalBlocks() - 1
	p, _ := g.Decode(last)
	if p.Track != g.TotalTracks()-1 {
		t.Fatalf("last LBN not on last track")
	}
	spt := int64(g.Zones[len(g.Zones)-1].SectorsPerTrack)
	secondToLast := last - spt
	adjs, err := g.Adjacent(secondToLast, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(adjs) != 1 {
		t.Fatalf("second-to-last track: got %d adjacent blocks, want 1", len(adjs))
	}
	// The very last track has none.
	adjs, err = g.Adjacent(last, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(adjs) != 0 {
		t.Fatalf("last track: got %d adjacent blocks, want 0", len(adjs))
	}
}

// TestAdjacencyAcrossZoneBoundary: adjacency still holds when the chain
// crosses into a zone with a different track length.
func TestAdjacencyAcrossZoneBoundary(t *testing.T) {
	g := SmallTestDisk()
	z0 := &g.Zones[0]
	// Last track of zone 0.
	lastTrackZ0 := z0.Cylinders()*g.Surfaces - 1
	lbn, err := g.Encode(lastTrackZ0, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.AdjacentBlock(lbn, 1)
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := g.Decode(a)
	if pa.Zone != 1 {
		t.Fatalf("adjacent block stayed in zone %d, want zone 1", pa.Zone)
	}
	d := New(g)
	if _, err := d.Access(Request{LBN: lbn, Count: 1}); err != nil {
		t.Fatal(err)
	}
	cost, err := d.Access(Request{LBN: a, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	sector := g.RotationMs() / float64(g.TrackLen(a))
	if pos := cost.SeekMs + cost.RotateMs; pos > g.CommandMs+g.SettleMs+float64(adjGuardSectors+2)*sector {
		t.Errorf("cross-zone adjacency positioning %.4f ms too slow", pos)
	}
}

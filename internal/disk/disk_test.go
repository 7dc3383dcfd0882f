package disk

import (
	"math"
	"math/rand"
	"testing"
)

func TestAccessValidation(t *testing.T) {
	d := New(SmallTestDisk())
	for _, r := range []Request{{LBN: -1, Count: 1}, {LBN: 0, Count: 0}, {LBN: 0, Count: -3},
		{LBN: d.Geometry().TotalBlocks(), Count: 1}, {LBN: d.Geometry().TotalBlocks() - 1, Count: 2}} {
		if _, err := d.Access(r); err == nil {
			t.Errorf("Access(%+v): expected error", r)
		}
	}
	if d.NowMs() != 0 || d.curTrack != 0 || d.lastEnd != -1 {
		t.Errorf("failed requests moved the drive: now %v, track %d, last end %d", d.NowMs(), d.curTrack, d.lastEnd)
	}
}

func TestAccessAdvancesClock(t *testing.T) {
	d := New(AtlasTenKIII())
	cost, err := d.Access(Request{LBN: 1_000_000, Count: 16})
	if err != nil {
		t.Fatal(err)
	}
	if cost.TotalMs() <= 0 {
		t.Fatalf("zero cost for a real access")
	}
	if d.NowMs() != cost.TotalMs() {
		t.Fatalf("clock %v != first access cost %v", d.NowMs(), cost.TotalMs())
	}
	// Re-reading the same block needs a full rotation (heads just
	// passed it), never more.
	cost2, _ := d.Access(Request{LBN: 1_000_000, Count: 16})
	if cost2.SeekMs != 0 {
		t.Errorf("same-track re-read should not seek, got %v", cost2.SeekMs)
	}
	rot := d.Geometry().RotationMs()
	if cost2.RotateMs <= 0 || cost2.RotateMs >= rot {
		t.Errorf("re-read rotational wait %v, want in (0,%v)", cost2.RotateMs, rot)
	}
}

func TestRotateWaitRange(t *testing.T) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		now := rng.Float64() * 1e6
		target := rng.Float64()
		w := g.rotateWaitMs(now, target)
		if w < 0 || w >= g.RotationMs()+1e-9 {
			t.Fatalf("rotateWait(%v,%v)=%v out of [0,rotation)", now, target, w)
		}
	}
}

// TestSequentialStreaming verifies that a long multi-track transfer
// proceeds at near media rate: the skew model must absorb head switches
// without blowing a rotation per track.
func TestSequentialStreaming(t *testing.T) {
	for _, g := range []*Geometry{AtlasTenKIII(), CheetahThirtySixES()} {
		d := New(g)
		spt := g.Zones[0].SectorsPerTrack
		tracks := 64
		n := spt * tracks
		// Position somewhere first so the initial seek is counted once.
		if _, err := d.Access(Request{LBN: 0, Count: 1}); err != nil {
			t.Fatal(err)
		}
		cost, err := d.Access(Request{LBN: 1, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		// Ideal: tracks rotations of transfer. Allow 35% overhead for
		// skew waits at 64 track boundaries.
		ideal := float64(tracks) * g.RotationMs()
		if cost.TotalMs() > ideal*1.35 {
			t.Errorf("%s: streaming %d tracks took %.1f ms, ideal %.1f (overhead too high)",
				g.Name, tracks, cost.TotalMs(), ideal)
		}
		// And it must never beat the media rate.
		if cost.TransferMs < ideal*0.95 {
			t.Errorf("%s: transfer %.1f ms beats media rate %.1f", g.Name, cost.TransferMs, ideal)
		}
	}
}

// TestTrackSwitchNoFullRotation checks the skew sizing directly: reading
// the last sector of one track then the first of the next must cost far
// less than a rotation.
func TestTrackSwitchNoFullRotation(t *testing.T) {
	for _, g := range testGeometries() {
		d := New(g)
		spt := g.Zones[0].SectorsPerTrack
		lastOfTrack0 := int64(spt - 1)
		if _, err := d.Access(Request{LBN: lastOfTrack0, Count: 1}); err != nil {
			t.Fatal(err)
		}
		cost, err := d.Access(Request{LBN: lastOfTrack0 + 1, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cost.TotalMs() > g.RotationMs()*0.5 {
			t.Errorf("%s: track switch cost %.2f ms, want well under a rotation (%.2f)",
				g.Name, cost.TotalMs(), g.RotationMs())
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	d := New(SmallTestDisk())
	rng := rand.New(rand.NewSource(5))
	var busyMs float64
	for i := 0; i < 50; i++ {
		lbn := rng.Int63n(d.Geometry().TotalBlocks() - 8)
		c, err := d.Access(Request{LBN: lbn, Count: 1 + rng.Intn(8)})
		if err != nil {
			t.Fatal(err)
		}
		if sum := c.CommandMs + c.SeekMs + c.RotateMs + c.TransferMs; c.TotalMs() <= 0 || c.TotalMs() != sum {
			t.Fatalf("access %d: total %v != cmd+seek+rot+xfer %v", i, c.TotalMs(), sum)
		}
		busyMs += c.TotalMs()
	}
	if math.Abs(busyMs-d.NowMs()) > 1e-6 {
		t.Fatalf("costs sum to %v ms, the clock advanced %v ms", busyMs, d.NowMs())
	}
}

// TestResetAndRandomize: the reset head state is a fresh drive's —
// heads on track 0, clock at 0 — and RandomizePosition moves the heads
// off it.
func TestResetAndRandomize(t *testing.T) {
	d := New(SmallTestDisk())
	if d.NowMs() != 0 || d.curTrack != 0 {
		t.Fatalf("fresh drive not in the reset state: now %v, track %d", d.NowMs(), d.curTrack)
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		d.RandomizePosition(rng)
		seen[d.curTrack] = true
	}
	if len(seen) < 5 {
		t.Errorf("RandomizePosition barely moves the head: %d distinct tracks", len(seen))
	}
}

func TestRandomAccessCostPlausible(t *testing.T) {
	// Average random single-block access = avg seek + half rotation,
	// within slack. Anchors the simulator against spec-sheet math.
	g := AtlasTenKIII()
	d := New(g)
	rng := rand.New(rand.NewSource(42))
	const n = 3000
	var total float64
	for i := 0; i < n; i++ {
		lbn := rng.Int63n(g.TotalBlocks())
		cost, err := d.Access(Request{LBN: lbn, Count: 1})
		if err != nil {
			t.Fatal(err)
		}
		total += cost.TotalMs()
	}
	avg := total / n
	want := g.CommandMs + g.SeekAvgMs + g.RotationMs()/2
	if avg < want*0.75 || avg > want*1.25 {
		t.Errorf("random access avg %.2f ms, want ~%.2f (cmd + avg seek + half rotation)", avg, want)
	}
}

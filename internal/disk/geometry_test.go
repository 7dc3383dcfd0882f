package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeometries() []*Geometry {
	return []*Geometry{SmallTestDisk(), AtlasTenKIII(), CheetahThirtySixES()}
}

func TestNewGeometryValidation(t *testing.T) {
	base := func() Geometry {
		return Geometry{
			Name: "g", RPM: 10000, Surfaces: 2,
			Zones:    []Zone{{StartCyl: 0, EndCyl: 99, SectorsPerTrack: 50, TrackSkew: 5, CylSkew: 2}},
			SettleMs: 1, SettleCyls: 5, HeadSwitchMs: 0.7, SeekAvgMs: 4, SeekMaxMs: 9,
		}
	}
	cases := []struct {
		name   string
		mutate func(*Geometry)
	}{
		{"zero RPM", func(g *Geometry) { g.RPM = 0 }},
		{"zero surfaces", func(g *Geometry) { g.Surfaces = 0 }},
		{"no zones", func(g *Geometry) { g.Zones = nil }},
		{"zero settle", func(g *Geometry) { g.SettleMs = 0 }},
		{"avg below settle", func(g *Geometry) { g.SeekAvgMs = 0.5 }},
		{"max below avg", func(g *Geometry) { g.SeekMaxMs = 2 }},
		{"zone gap", func(g *Geometry) { g.Zones[0].StartCyl = 1 }},
		{"inverted zone", func(g *Geometry) { g.Zones[0].EndCyl = -1 }},
		{"zero track length", func(g *Geometry) { g.Zones[0].SectorsPerTrack = 0 }},
		{"skew too large", func(g *Geometry) { g.Zones[0].TrackSkew = 50 }},
		{"settle range too wide", func(g *Geometry) { g.SettleCyls = 100 }},
	}
	for _, tc := range cases {
		g := base()
		tc.mutate(&g)
		if _, err := NewGeometry(g); err == nil {
			t.Errorf("%s: expected validation error, got nil", tc.name)
		}
	}
	if _, err := NewGeometry(base()); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
}

func TestZoneTiling(t *testing.T) {
	for _, g := range testGeometries() {
		var lbn int64
		track := 0
		for i := range g.Zones {
			z := &g.Zones[i]
			if z.startLBN != lbn {
				t.Errorf("%s zone %d: startLBN %d, want %d", g.Name, i, z.startLBN, lbn)
			}
			if z.startTrack != track {
				t.Errorf("%s zone %d: startTrack %d, want %d", g.Name, i, z.startTrack, track)
			}
			lbn += int64(z.Cylinders()*g.Surfaces) * int64(z.SectorsPerTrack)
			track += z.Cylinders() * g.Surfaces
		}
		if g.TotalBlocks() != lbn {
			t.Errorf("%s: TotalBlocks %d, want %d", g.Name, g.TotalBlocks(), lbn)
		}
		if g.TotalTracks() != track {
			t.Errorf("%s: TotalTracks %d, want %d", g.Name, g.TotalTracks(), track)
		}
	}
}

func TestPaperDiskCapacities(t *testing.T) {
	// Both evaluation drives are 36.7 GB; the model should land within 15%.
	for _, g := range []*Geometry{AtlasTenKIII(), CheetahThirtySixES()} {
		gb := float64(g.TotalBlocks()) * 512 / 1e9
		if gb < 31 || gb > 42 {
			t.Errorf("%s: capacity %.1f GB, want ~36.7 GB", g.Name, gb)
		}
		if g.AdjSpan() < 128 {
			t.Errorf("%s: AdjSpan %d, want >= 128 (paper uses D=128)", g.Name, g.AdjSpan())
		}
		if g.RotationMs() != 6.0 {
			t.Errorf("%s: rotation %.2f ms, want 6.00 (10k RPM)", g.Name, g.RotationMs())
		}
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	for _, g := range testGeometries() {
		g := g
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			lbn := rng.Int63n(g.TotalBlocks())
			p, err := g.Decode(lbn)
			if err != nil {
				return false
			}
			back, err := g.Encode(p.Track, p.Sector)
			if err != nil {
				return false
			}
			return back == lbn
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestDecodeConsistency(t *testing.T) {
	g := SmallTestDisk()
	// Exhaustive on the small disk: fields must be in range and monotone.
	var prev PBN
	for lbn := int64(0); lbn < g.TotalBlocks(); lbn++ {
		p, err := g.Decode(lbn)
		if err != nil {
			t.Fatalf("Decode(%d): %v", lbn, err)
		}
		z := &g.Zones[p.Zone]
		if p.Sector < 0 || p.Sector >= z.SectorsPerTrack {
			t.Fatalf("lbn %d: sector %d out of range", lbn, p.Sector)
		}
		if p.Cyl < z.StartCyl || p.Cyl > z.EndCyl {
			t.Fatalf("lbn %d: cylinder %d outside zone %d", lbn, p.Cyl, p.Zone)
		}
		if p.Track != p.Cyl*g.Surfaces+p.Surface {
			t.Fatalf("lbn %d: track %d != cyl*R+surf", lbn, p.Track)
		}
		if lbn > 0 && p.Track < prev.Track {
			t.Fatalf("lbn %d: track went backwards", lbn)
		}
		prev = p
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	g := SmallTestDisk()
	for _, lbn := range []int64{-1, g.TotalBlocks(), g.TotalBlocks() + 10} {
		if _, err := g.Decode(lbn); err == nil {
			t.Errorf("Decode(%d): expected error", lbn)
		}
	}
}

func TestTrackBoundaries(t *testing.T) {
	for _, g := range testGeometries() {
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			lbn := rng.Int63n(g.TotalBlocks())
			start, next, err := g.TrackBoundaries(lbn)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			if lbn < start || lbn >= next {
				t.Fatalf("%s: lbn %d outside own track [%d,%d)", g.Name, lbn, start, next)
			}
			if int(next-start) != g.TrackLen(lbn) {
				t.Fatalf("%s: track [%d,%d) length %d != TrackLen %d",
					g.Name, start, next, next-start, g.TrackLen(lbn))
			}
			ps, _ := g.Decode(start)
			pe, _ := g.Decode(next - 1)
			if ps.Track != pe.Track || ps.Sector != 0 {
				t.Fatalf("%s: boundaries not aligned to a single track", g.Name)
			}
		}
	}
}

func TestZoneOfMatchesDecode(t *testing.T) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		lbn := rng.Int63n(g.TotalBlocks())
		p, _ := g.Decode(lbn)
		if zi := g.ZoneIndexOf(lbn); zi != p.Zone {
			t.Fatalf("ZoneIndexOf(%d)=%d, Decode says %d", lbn, zi, p.Zone)
		}
	}
}

func TestTrackLenDecreasesInward(t *testing.T) {
	for _, g := range []*Geometry{AtlasTenKIII(), CheetahThirtySixES()} {
		for i := 1; i < g.NumZones(); i++ {
			if g.Zones[i].SectorsPerTrack > g.Zones[i-1].SectorsPerTrack {
				t.Errorf("%s: zone %d longer than zone %d", g.Name, i, i-1)
			}
		}
	}
}

func TestSkewOffsetStable(t *testing.T) {
	// Consecutive tracks in a zone differ by exactly TrackSkew
	// (+CylSkew at cylinder boundaries), modulo track length.
	g := SmallTestDisk()
	for track := 0; track < g.TotalTracks()-1; track++ {
		z := g.zoneOfTrack(track)
		zn := g.zoneOfTrack(track + 1)
		if z != zn {
			continue // skew chains restart across zones
		}
		want := z.TrackSkew
		if (track+1)%g.Surfaces == 0 {
			want += z.CylSkew
		}
		got := (g.skewOffset(track+1) - g.skewOffset(track) + z.SectorsPerTrack) % z.SectorsPerTrack
		if got != want%z.SectorsPerTrack {
			t.Fatalf("track %d->%d: skew delta %d, want %d", track, track+1, got, want)
		}
	}
}

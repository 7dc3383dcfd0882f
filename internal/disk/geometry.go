// Package disk implements a detailed single-spindle disk drive simulator.
//
// The simulator models the mechanisms that the MultiMap paper's results
// depend on: zoned recording (track length varies by radial position), a
// three-regime seek curve whose short-seek region is dominated by head
// settle time, rotational position as a function of absolute time,
// track and cylinder skew, and an on-disk scheduler. On top of the
// mechanical model it computes the adjacency relation of Schlosser et
// al. (FAST 2005): for every LBN, the D blocks on the following D tracks
// that can be read immediately after the head settles, with no
// rotational latency.
//
// All times are in milliseconds; all angles are expressed in fractions
// of a rotation [0,1).
package disk

import (
	"errors"
	"fmt"
	"sort"
)

// Zone is a contiguous band of cylinders recorded at the same linear bit
// density, so every track in the zone holds the same number of sectors.
type Zone struct {
	// StartCyl and EndCyl delimit the zone's cylinders, inclusive.
	StartCyl int
	EndCyl   int
	// SectorsPerTrack is the track length T within this zone.
	SectorsPerTrack int
	// TrackSkew is the sector offset added at each track boundary so
	// that a sequential transfer resumes right after a head switch.
	TrackSkew int
	// CylSkew is the additional offset at each cylinder boundary,
	// covering the (longer) single-cylinder seek.
	CylSkew int

	// startLBN and startTrack are derived by Geometry.finish.
	startLBN   int64
	startTrack int
}

// Cylinders returns the number of cylinders in the zone.
func (z *Zone) Cylinders() int { return z.EndCyl - z.StartCyl + 1 }

// StartLBN returns the first logical block number of the zone.
func (z *Zone) StartLBN() int64 { return z.startLBN }

// Geometry describes the physical layout and mechanical timing of a
// disk drive. Construct one with NewGeometry (or use a predefined model
// from models.go) so the derived fields are populated and validated.
type Geometry struct {
	// Name identifies the drive model.
	Name string
	// RPM is the spindle speed in revolutions per minute.
	RPM int
	// Surfaces is the number of recording surfaces (heads); a cylinder
	// therefore contains Surfaces tracks (the paper's R).
	Surfaces int
	// Zones, ordered from the outermost (cylinder 0) inward.
	Zones []Zone

	// SettleMs is the head settle time: the near-constant cost of any
	// seek of at most SettleCyls cylinders (the paper's Fig. 1a plateau).
	SettleMs float64
	// SettleCyls is the paper's C: the longest cylinder distance whose
	// seek cost is dominated by settle time.
	SettleCyls int
	// HeadSwitchMs is the cost of switching heads within a cylinder.
	HeadSwitchMs float64
	// SeekAvgMs is the spec-sheet average seek time, interpreted as the
	// cost of a seek across one third of the cylinders.
	SeekAvgMs float64
	// SeekMaxMs is the full-stroke seek time.
	SeekMaxMs float64
	// CommandMs is the per-request command processing overhead (host
	// protocol + firmware), charged to every request that is not a
	// sequential continuation of the previous one; continuations are
	// served from the drive's prefetch buffer at media rate.
	CommandMs float64

	// derived
	cylinders   int
	totalBlocks int64
	rotationMs  float64
	seek        seekCurve
}

// NewGeometry validates g, derives the per-zone LBN ranges and the seek
// curve coefficients, and returns the ready-to-use geometry.
func NewGeometry(g Geometry) (*Geometry, error) {
	if g.RPM <= 0 {
		return nil, fmt.Errorf("disk: %s: RPM must be positive, got %d", g.Name, g.RPM)
	}
	if g.Surfaces <= 0 {
		return nil, fmt.Errorf("disk: %s: Surfaces must be positive, got %d", g.Name, g.Surfaces)
	}
	if len(g.Zones) == 0 {
		return nil, fmt.Errorf("disk: %s: at least one zone required", g.Name)
	}
	if g.SettleMs <= 0 || g.SettleCyls <= 0 {
		return nil, fmt.Errorf("disk: %s: settle time and settle cylinder range must be positive", g.Name)
	}
	if g.SeekAvgMs < g.SettleMs || g.SeekMaxMs < g.SeekAvgMs {
		return nil, fmt.Errorf("disk: %s: need settle <= avg seek <= max seek", g.Name)
	}
	if g.CommandMs < 0 {
		return nil, fmt.Errorf("disk: %s: command overhead must be non-negative", g.Name)
	}
	if err := g.finish(); err != nil {
		return nil, err
	}
	return &g, nil
}

// MustGeometry is NewGeometry that panics on error; for use with the
// static models in models.go and in tests.
func MustGeometry(g Geometry) *Geometry {
	gg, err := NewGeometry(g)
	if err != nil {
		panic(err)
	}
	return gg
}

var errLBNRange = errors.New("disk: LBN out of range")

// finish derives zone start LBNs, totals, and the seek curve.
func (g *Geometry) finish() error {
	g.rotationMs = 60000.0 / float64(g.RPM)
	var lbn int64
	track := 0
	prevEnd := -1
	for i := range g.Zones {
		z := &g.Zones[i]
		if z.StartCyl != prevEnd+1 {
			return fmt.Errorf("disk: %s: zone %d starts at cylinder %d, want %d (zones must tile the cylinders)",
				g.Name, i, z.StartCyl, prevEnd+1)
		}
		if z.EndCyl < z.StartCyl {
			return fmt.Errorf("disk: %s: zone %d has EndCyl < StartCyl", g.Name, i)
		}
		if z.SectorsPerTrack <= 0 {
			return fmt.Errorf("disk: %s: zone %d has non-positive track length", g.Name, i)
		}
		if z.TrackSkew < 0 || z.TrackSkew >= z.SectorsPerTrack || z.CylSkew < 0 || z.CylSkew >= z.SectorsPerTrack {
			return fmt.Errorf("disk: %s: zone %d skew out of range [0,%d)", g.Name, i, z.SectorsPerTrack)
		}
		z.startLBN = lbn
		z.startTrack = track
		nTracks := z.Cylinders() * g.Surfaces
		lbn += int64(nTracks) * int64(z.SectorsPerTrack)
		track += nTracks
		prevEnd = z.EndCyl
	}
	g.cylinders = prevEnd + 1
	g.totalBlocks = lbn
	if g.SettleCyls >= g.cylinders {
		return fmt.Errorf("disk: %s: settle range %d must be smaller than cylinder count %d",
			g.Name, g.SettleCyls, g.cylinders)
	}
	g.seek = fitSeekCurve(g.SettleMs, g.SettleCyls, g.SeekAvgMs, g.SeekMaxMs, g.cylinders)
	return nil
}

// Cylinders returns the total cylinder count.
func (g *Geometry) Cylinders() int { return g.cylinders }

// TotalBlocks returns the drive capacity in 512-byte blocks.
func (g *Geometry) TotalBlocks() int64 { return g.totalBlocks }

// RotationMs returns the rotational period in milliseconds.
func (g *Geometry) RotationMs() float64 { return g.rotationMs }

// ZoneOf returns the zone containing lbn. It panics if lbn is out of
// range; callers must validate first (see Decode).
func (g *Geometry) ZoneOf(lbn int64) *Zone {
	i := sort.Search(len(g.Zones), func(i int) bool {
		return g.Zones[i].startLBN > lbn
	}) - 1
	if i < 0 || lbn >= g.totalBlocks {
		panic(fmt.Sprintf("disk: %s: LBN %d out of range [0,%d)", g.Name, lbn, g.totalBlocks))
	}
	return &g.Zones[i]
}

// ZoneIndexOf returns the index of the zone containing lbn.
func (g *Geometry) ZoneIndexOf(lbn int64) int {
	i := sort.Search(len(g.Zones), func(i int) bool {
		return g.Zones[i].startLBN > lbn
	}) - 1
	if i < 0 || lbn >= g.totalBlocks {
		panic(fmt.Sprintf("disk: %s: LBN %d out of range [0,%d)", g.Name, lbn, g.totalBlocks))
	}
	return i
}

// ZoneByIndex returns the i-th zone (outermost first).
func (g *Geometry) ZoneByIndex(i int) *Zone { return &g.Zones[i] }

// NumZones returns the number of recording zones.
func (g *Geometry) NumZones() int { return len(g.Zones) }

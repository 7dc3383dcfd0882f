package disk

import (
	"fmt"
	"math"
)

// adjGuardSectors is the safety margin added to the settle-time
// rotational offset when placing adjacent blocks. One sector absorbs
// rounding at sector granularity; the second tolerates small arrival
// jitter so a chain never misses a rotation.
const adjGuardSectors = 2

// settleSectors returns the number of sectors (rounded up) that pass
// under the head between issuing the next request and the head settling
// on the destination track: command processing plus settle time. The
// adjacency offset must cover both, exactly as the FAST'05 model's
// empirically-extracted offsets do (they measure request-to-request).
func (g *Geometry) settleSectors(spt int) int {
	return int(math.Ceil((g.CommandMs + g.SettleMs) / g.rotationMs * float64(spt)))
}

// AdjSpan returns the largest usable adjacency depth D: the number of
// tracks reachable within the settle-dominated seek range (the paper's
// D <= R*C). Callers may configure any D up to this value.
func (g *Geometry) AdjSpan() int { return g.Surfaces * g.SettleCyls }

// AdjacentBlock returns the k-th adjacent block of lbn (1 <= k <=
// AdjSpan): the block on track(lbn)+k whose start angle trails lbn's end
// angle by the settle-time rotation, so that it can be read right after
// the head settles, with no rotational latency.
func (g *Geometry) AdjacentBlock(lbn int64, k int) (int64, error) {
	if k < 1 || k > g.AdjSpan() {
		return 0, fmt.Errorf("disk: %s: adjacency depth %d out of range [1,%d]", g.Name, k, g.AdjSpan())
	}
	p, err := g.Decode(lbn)
	if err != nil {
		return 0, err
	}
	target := p.Track + k
	tz := g.zoneOfTrack(target)
	if tz == nil {
		return 0, fmt.Errorf("disk: %s: LBN %d has no %d-th adjacent block (past last track)", g.Name, lbn, k)
	}
	// Angle at which the target block must start: one sector past lbn's
	// start (= lbn's end) plus the settle rotation plus the guard, all
	// measured in the target zone's sector grid.
	srcZone := &g.Zones[p.Zone]
	endAngle := g.angleOfSectorStart(p.Track, p.Sector) + 1.0/float64(srcZone.SectorsPerTrack)
	offFrac := float64(g.settleSectors(tz.SectorsPerTrack)+adjGuardSectors) / float64(tz.SectorsPerTrack)
	targetAngle := endAngle + offFrac

	// Smallest sector on the target track whose start angle is at or
	// after targetAngle (mod one rotation).
	spt := tz.SectorsPerTrack
	base := g.skewOffset(target)
	x := targetAngle*float64(spt) - float64(base)
	j := int(math.Ceil(x - 1e-9))
	j = ((j % spt) + spt) % spt
	return g.Encode(target, j)
}

// Adjacent returns the first d adjacent blocks of lbn, one per
// successive track. If fewer than d tracks remain on the drive, the
// returned slice is shorter; it is empty only on the very last track.
// This is the GetAdjacent interface call the paper's LVM exports.
func (g *Geometry) Adjacent(lbn int64, d int) ([]int64, error) {
	if d < 1 {
		return nil, fmt.Errorf("disk: %s: adjacency depth must be positive, got %d", g.Name, d)
	}
	if span := g.AdjSpan(); d > span {
		return nil, fmt.Errorf("disk: %s: adjacency depth %d exceeds span %d", g.Name, d, span)
	}
	p, err := g.Decode(lbn)
	if err != nil {
		return nil, err
	}
	if remain := g.TotalTracks() - 1 - p.Track; d > remain {
		d = remain
	}
	out := make([]int64, 0, d)
	for k := 1; k <= d; k++ {
		a, err := g.AdjacentBlock(lbn, k)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// SemiSeqStepMs returns the modelled cost of one hop along a
// semi-sequential path in lbn's zone: command overhead plus settle plus
// the guard rotation plus one sector transfer. Useful for analytic
// estimates.
func (g *Geometry) SemiSeqStepMs(lbn int64) float64 {
	spt := g.TrackLen(lbn)
	sector := g.rotationMs / float64(spt)
	busy := g.CommandMs + g.SettleMs
	slack := float64(g.settleSectors(spt))*sector - busy // < one sector
	return busy + slack + float64(adjGuardSectors)*sector + sector
}

package disk

import (
	"fmt"
	"math"
	"sort"
)

// PBN is a decoded physical block number: the physical coordinates of a
// logical block.
type PBN struct {
	Zone    int // zone index
	Cyl     int // cylinder (0 = outermost)
	Surface int // recording surface / head
	Track   int // global track index: Cyl*Surfaces + Surface
	Sector  int // sector index within the track, 0-based
}

// Decode maps an LBN to its physical coordinates. The layout is
// cylinder-major: all tracks of a cylinder are filled (surface 0..R-1)
// before moving one cylinder inward, matching conventional drives.
func (g *Geometry) Decode(lbn int64) (PBN, error) {
	if lbn < 0 || lbn >= g.totalBlocks {
		return PBN{}, fmt.Errorf("%w: %d not in [0,%d)", errLBNRange, lbn, g.totalBlocks)
	}
	zi := g.ZoneIndexOf(lbn)
	z := &g.Zones[zi]
	idx := lbn - z.startLBN
	spt := int64(z.SectorsPerTrack)
	trackInZone := int(idx / spt)
	sector := int(idx % spt)
	track := z.startTrack + trackInZone
	return PBN{
		Zone:    zi,
		Cyl:     z.StartCyl + trackInZone/g.Surfaces,
		Surface: trackInZone % g.Surfaces,
		Track:   track,
		Sector:  sector,
	}, nil
}

// mustDecode is Decode for internally-generated LBNs that are known valid.
func (g *Geometry) mustDecode(lbn int64) PBN {
	p, err := g.Decode(lbn)
	if err != nil {
		panic(err)
	}
	return p
}

// zoneOfTrack returns the zone containing the global track index, or nil
// if the track is beyond the last zone.
func (g *Geometry) zoneOfTrack(track int) *Zone {
	if track < 0 || track >= g.TotalTracks() {
		return nil
	}
	return &g.Zones[g.zoneIndexOfTrack(track)]
}

// zoneIndexOfTrack returns the index of the zone containing a track
// known to lie on the drive.
func (g *Geometry) zoneIndexOfTrack(track int) int {
	return sort.Search(len(g.Zones), func(i int) bool {
		return g.Zones[i].startTrack > track
	}) - 1
}

// Encode maps (global track, sector) back to an LBN. It is the inverse
// of Decode restricted to valid coordinates.
func (g *Geometry) Encode(track, sector int) (int64, error) {
	z := g.zoneOfTrack(track)
	if z == nil {
		return 0, fmt.Errorf("disk: %s: track %d out of range", g.Name, track)
	}
	if sector < 0 || sector >= z.SectorsPerTrack {
		return 0, fmt.Errorf("disk: %s: sector %d out of range [0,%d) on track %d",
			g.Name, sector, z.SectorsPerTrack, track)
	}
	return z.startLBN + int64(track-z.startTrack)*int64(z.SectorsPerTrack) + int64(sector), nil
}

// TotalTracks returns the number of tracks on the drive.
func (g *Geometry) TotalTracks() int { return g.cylinders * g.Surfaces }

// TrackBoundaries returns the first LBN of the track containing lbn and
// the first LBN of the next track, i.e. the half-open interval
// [start, next) of blocks sharing lbn's track. This is the
// GetTrackBoundaries interface call the paper's LVM exports.
func (g *Geometry) TrackBoundaries(lbn int64) (start, next int64, err error) {
	p, err := g.Decode(lbn)
	if err != nil {
		return 0, 0, err
	}
	z := &g.Zones[p.Zone]
	start = lbn - int64(p.Sector)
	next = start + int64(z.SectorsPerTrack)
	return start, next, nil
}

// TrackLen returns the number of sectors on lbn's track (the paper's T,
// which varies by zone).
func (g *Geometry) TrackLen(lbn int64) int {
	return g.ZoneOf(lbn).SectorsPerTrack
}

// skewOffset returns the accumulated skew, in sectors, of a global track:
// the rotational shift of sector 0 relative to sector 0 of the zone's
// first track. Track skew accrues at every track boundary and cylinder
// skew additionally at every cylinder boundary, so a maximal sequential
// transfer loses only the switch time, not a full rotation.
func (g *Geometry) skewOffset(track int) int {
	z := g.zoneOfTrack(track)
	if z == nil {
		return 0
	}
	return g.skewOffsetIn(z, track)
}

// skewOffsetIn is skewOffset with the track's zone already resolved —
// the form the per-request hot paths use.
func (g *Geometry) skewOffsetIn(z *Zone, track int) int {
	t := track - z.startTrack
	cylsCrossed := t / g.Surfaces
	skew := t*z.TrackSkew + cylsCrossed*z.CylSkew
	return skew % z.SectorsPerTrack
}

// angleOfSectorStart returns the angular position, as a fraction of a
// rotation in [0,1), at which the given sector of the given track passes
// under the head.
func (g *Geometry) angleOfSectorStart(track, sector int) float64 {
	z := g.zoneOfTrack(track)
	if z == nil {
		panic(fmt.Sprintf("disk: %s: track %d out of range", g.Name, track))
	}
	return g.angleOfSectorIn(z, track, sector)
}

// angleOfSectorIn is angleOfSectorStart with the zone already resolved.
func (g *Geometry) angleOfSectorIn(z *Zone, track, sector int) float64 {
	s := (sector + g.skewOffsetIn(z, track)) % z.SectorsPerTrack
	return float64(s) / float64(z.SectorsPerTrack)
}

// angleAt returns the spindle phase in [0,1) at absolute time nowMs: the
// angular position currently under the heads.
func (g *Geometry) angleAt(nowMs float64) float64 {
	r := nowMs / g.rotationMs
	return r - float64(int64(r))
}

// rotAngleEps absorbs floating-point noise when a target angle
// coincides with the current head position (exact sequential
// continuation): without it, an error of one ulp turns a zero wait into
// a full spurious rotation.
const rotAngleEps = 1e-9

// rotateWaitMs returns the time to wait, starting at nowMs, until the
// platter reaches target angle (fraction of rotation).
func (g *Geometry) rotateWaitMs(nowMs, target float64) float64 {
	return g.waitFromMs(g.angleAt(nowMs), target)
}

// waitFromMs is rotateWaitMs from a spindle phase already computed.
// Whether the target lies behind the phase is a coin toss per call, so
// the wrap adds d's sign bit rather than branching on it: for phases and
// targets in [0,1) the result is bit for bit that of `if d < 0 { d++ }`.
func (g *Geometry) waitFromMs(phase, target float64) float64 {
	d := target - phase
	d += float64(math.Float64bits(d) >> 63)
	if d < 0 || d > 1-rotAngleEps {
		d = 0
	}
	return d * g.rotationMs
}

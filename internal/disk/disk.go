package disk

import (
	"fmt"
	"math/rand"
)

// Request is a contiguous read of Count blocks starting at LBN.
type Request struct {
	LBN   int64
	Count int
}

// Validate reports whether the request lies within the drive.
func (r Request) validate(g *Geometry) error {
	if r.Count <= 0 {
		return fmt.Errorf("disk: request count must be positive, got %d", r.Count)
	}
	if r.LBN < 0 || r.LBN+int64(r.Count) > g.totalBlocks {
		return fmt.Errorf("%w: request [%d,%d) not in [0,%d)",
			errLBNRange, r.LBN, r.LBN+int64(r.Count), g.totalBlocks)
	}
	return nil
}

// AccessCost is the breakdown of one request's service time.
type AccessCost struct {
	CommandMs  float64 // command processing overhead (0 for sequential continuations)
	SeekMs     float64 // arm movement and head switches
	RotateMs   float64 // rotational latency (all waits for the platter)
	TransferMs float64 // media transfer
}

// TotalMs returns the request's total service time.
func (c AccessCost) TotalMs() float64 {
	return c.CommandMs + c.SeekMs + c.RotateMs + c.TransferMs
}

// Scaled returns the cost with every component multiplied by f: one
// contributor's share of a request that was served for several.
func (c AccessCost) Scaled(f float64) AccessCost {
	return AccessCost{
		CommandMs:  c.CommandMs * f,
		SeekMs:     c.SeekMs * f,
		RotateMs:   c.RotateMs * f,
		TransferMs: c.TransferMs * f,
	}
}

// Completion records the service of one request within a batch.
type Completion struct {
	Req      Request
	Cost     AccessCost
	FinishMs float64 // absolute time at which the request completed
}

// Stats accumulates service-time totals across requests.
type Stats struct {
	Requests   int64
	Blocks     int64
	CommandMs  float64
	SeekMs     float64
	RotateMs   float64
	TransferMs float64
	BusyMs     float64
}

func (s *Stats) add(r Request, c AccessCost) {
	s.Requests++
	s.Blocks += int64(r.Count)
	s.CommandMs += c.CommandMs
	s.SeekMs += c.SeekMs
	s.RotateMs += c.RotateMs
	s.TransferMs += c.TransferMs
	s.BusyMs += c.TotalMs()
}

// Disk is a simulated drive: a geometry plus mutable head state. A Disk
// is not safe for concurrent use; wrap it (as internal/lvm does) if
// multiple goroutines issue requests.
type Disk struct {
	g        *Geometry
	nowMs    float64
	curTrack int
	lastEnd  int64 // LBN right after the last transferred block (-1 = none)
	stats    Stats
	slabs    sptfSlabs // the SPTF index of the last window within sptfKeep, reused
}

// New returns a disk with the given geometry, heads at track 0, time 0.
func New(g *Geometry) *Disk {
	return &Disk{g: g, lastEnd: -1}
}

// Geometry returns the drive's geometry.
func (d *Disk) Geometry() *Geometry { return d.g }

// NowMs returns the drive's current clock.
func (d *Disk) NowMs() float64 { return d.nowMs }

// Stats returns the accumulated service statistics.
func (d *Disk) Stats() Stats { return d.stats }

// RandomizePosition moves the heads to a uniformly random track and the
// spindle to a uniformly random phase, modelling an unknown prior state
// between experiment runs.
func (d *Disk) RandomizePosition(rng *rand.Rand) {
	d.curTrack = rng.Intn(d.g.TotalTracks())
	d.nowMs += rng.Float64() * d.g.rotationMs
	d.lastEnd = -1
}

// cylOfTrack returns the cylinder of a global track index.
func (g *Geometry) cylOfTrack(track int) int { return track / g.Surfaces }

// positionTimeMs returns the arm/head cost of moving from track `from`
// to track `to`: zero on the same track, a head switch within a
// cylinder, and the seek curve otherwise. Settle time (which already
// includes the head switch) covers all seeks of at most SettleCyls
// cylinders — the mechanism behind adjacent blocks.
func (g *Geometry) positionTimeMs(from, to int) float64 {
	if from == to {
		return 0
	}
	dc := g.cylOfTrack(to) - g.cylOfTrack(from)
	if dc == 0 {
		return g.HeadSwitchMs
	}
	return g.SeekTimeMs(dc)
}

// Access services one request starting from the current head state,
// advancing the clock. Transfers that span track or zone boundaries pay
// the head switch / seek and any skew-induced rotational wait at each
// boundary, exactly as a real sequential transfer does.
func (d *Disk) Access(r Request) (AccessCost, error) {
	if err := r.validate(d.g); err != nil {
		return AccessCost{}, err
	}
	return d.accessValid(r), nil
}

// accessValid is Access for a request already validated.
func (d *Disk) accessValid(r Request) AccessCost {
	p := d.g.mustDecode(r.LBN)
	return d.access(r, &d.g.Zones[p.Zone], p.Track, p.Sector)
}

// access is Access for a validated request whose first block is
// already decoded: sector of track, in zone z.
func (d *Disk) access(r Request, z *Zone, track, sector int) AccessCost {
	var cost AccessCost
	// Command processing: free only when the request continues exactly
	// where the previous transfer ended (prefetch-buffer hit).
	if r.LBN != d.lastEnd {
		cost.CommandMs = d.g.CommandMs
		d.nowMs += cost.CommandMs
	}
	remaining := r.Count
	cur := r.LBN
	for {
		run := min(z.SectorsPerTrack-sector, remaining)
		seekMs := d.g.positionTimeMs(d.curTrack, track)
		arrive := d.nowMs + seekMs
		rotMs := d.g.rotateWaitMs(arrive, d.g.angleOfSectorIn(z, track, sector))
		xferMs := float64(run) * d.g.rotationMs / float64(z.SectorsPerTrack)

		cost.SeekMs += seekMs
		cost.RotateMs += rotMs
		cost.TransferMs += xferMs
		d.nowMs = arrive + rotMs + xferMs
		d.curTrack = track

		remaining -= run
		cur += int64(run)
		if remaining == 0 {
			break
		}
		p := d.g.mustDecode(cur)
		z, track, sector = &d.g.Zones[p.Zone], p.Track, p.Sector
	}
	d.lastEnd = cur
	d.stats.add(r, cost)
	return cost
}

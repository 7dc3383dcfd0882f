// Package analytic reconstructs the paper's analytical I/O cost model
// (§5: "we also developed an analytical model to estimate the I/O cost
// for any query ... for Naive and MultiMap given disk parameters, the
// dimensions of the dataset, and the size of the query"; detailed in
// tech report CMU-PDL-05-102, which the ICDE paper does not reprint).
//
// The model is closed-form and deliberately first-order: it tracks the
// dominant positioning terms (command overhead, settle-bounded seeks,
// rotational phase progression at fixed strides, media transfer) and is
// validated against the simulator in this package's tests. It serves as
// an oracle for sanity-checking experiments and for capacity planning
// without running the simulator.
package analytic

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/disk"
)

// Model estimates query costs on one drive. Estimates use the outermost
// zone's track length, matching datasets allocated from the start of
// the drive.
type Model struct {
	g *disk.Geometry

	rotMs    float64
	sectorMs float64
	trackLen int
}

// New builds a model for a drive.
func New(g *disk.Geometry) *Model {
	t := g.ZoneByIndex(0).SectorsPerTrack
	return &Model{
		g:        g,
		rotMs:    g.RotationMs(),
		sectorMs: g.RotationMs() / float64(t),
		trackLen: t,
	}
}

// firstAccessMs is the expected cost of the initial positioning from an
// unknown head position: command overhead, an average seek, and half a
// rotation.
func (m *Model) firstAccessMs() float64 {
	return m.g.CommandMs + m.g.SeekAvgMs + m.rotMs/2
}

// pmod returns x mod m in [0, m).
func pmod(x, m float64) float64 {
	r := math.Mod(x, m)
	if r < 0 {
		r += m
	}
	return r
}

// stepMs is the expected cost of fetching `length` blocks whose start
// lies `strideBlocks` after the previous request's start, for a linear
// layout: the head stays put or seeks the crossed tracks, then waits
// for the platter to bring the target around.
func (m *Model) stepMs(strideBlocks int64, length int) float64 {
	tracks := int(strideBlocks / int64(m.trackLen))
	gapSectors := float64(strideBlocks % int64(m.trackLen))
	var seek float64
	if tracks > 0 {
		cyls := tracks / m.g.Surfaces
		if cyls == 0 {
			seek = m.g.HeadSwitchMs
		} else {
			seek = m.g.SeekTimeMs(cyls)
		}
	}
	// The platter advances while the command processes and the arm
	// moves; the target sits gapSectors ahead of the previous start.
	advance := m.g.CommandMs + seek
	wait := pmod(gapSectors*m.sectorMs-advance, m.rotMs)
	return m.g.CommandMs + seek + wait + float64(length)*m.sectorMs
}

// semiSeqStepMs is the cost of one adjacency hop plus the run transfer.
func (m *Model) semiSeqStepMs(length int) float64 {
	return m.g.SemiSeqStepMs(0) + float64(length-1)*m.sectorMs
}

// cubeJumpMs approximates moving between basic-cube groups: command,
// a settle-class seek (groups of one dataset are near each other), and
// half a rotation of latency.
func (m *Model) cubeJumpMs(length int) float64 {
	return m.g.CommandMs + m.g.SettleMs + m.rotMs/2 + float64(length)*m.sectorMs
}

// strides returns the row-major stride of each dimension in blocks.
func strides(dims []int) []int64 {
	out := make([]int64, len(dims))
	s := int64(1)
	for i, d := range dims {
		out[i] = s
		s *= int64(d)
	}
	return out
}

// NaiveBeamMs estimates the total I/O time of a beam query along dim
// for a Naive (Dim0-major linearized) layout.
func (m *Model) NaiveBeamMs(dims []int, dim int) (float64, error) {
	if dim < 0 || dim >= len(dims) {
		return 0, fmt.Errorf("analytic: beam dim %d out of range", dim)
	}
	n := dims[dim]
	if dim == 0 {
		// One sequential request.
		return m.firstAccessMs() + float64(n)*m.sectorMs, nil
	}
	st := strides(dims)[dim]
	return m.firstAccessMs() + m.sectorMs + float64(n-1)*m.stepMs(st, 1), nil
}

// MultiMapBeamMs estimates the total I/O time of a beam query along dim
// for a MultiMap layout with the given basic cube.
func (m *Model) MultiMapBeamMs(spec *core.CubeSpec, dims []int, dim int) (float64, error) {
	if dim < 0 || dim >= len(dims) {
		return 0, fmt.Errorf("analytic: beam dim %d out of range", dim)
	}
	if len(dims) != spec.N() {
		return 0, fmt.Errorf("analytic: dims/spec arity mismatch")
	}
	n := dims[dim]
	k := spec.K[dim]
	crossings := float64((n - 1) / k)
	if dim == 0 {
		// Sequential within each cube row. Dim0 cube crossings land on
		// the adjacent packing slot of the same track, and the layout
		// bridges the few padding sectors between slots, so a crossing
		// costs only that read-through.
		return m.firstAccessMs() + float64(n)*m.sectorMs + crossings*2*m.sectorMs, nil
	}
	inCube := float64(n-1) - crossings
	return m.firstAccessMs() + m.sectorMs +
		inCube*m.semiSeqStepMs(1) + crossings*m.cubeJumpMs(1), nil
}

// boxSteps counts, for each dimension >= 1, how many inter-run steps a
// row-major sweep of the box takes along that dimension.
func boxSteps(q []int) []int64 {
	// Total runs = prod(q[1:]); steps along dim i happen
	// (q_i - 1) * prod(q[i+1:]) times.
	out := make([]int64, len(q))
	suffix := int64(1)
	for i := len(q) - 1; i >= 1; i-- {
		out[i] = int64(q[i]-1) * suffix
		suffix *= int64(q[i])
	}
	return out
}

// NaiveRangeMs estimates the total I/O time of a range query fetching a
// box of q[i] cells per dimension from a Naive layout.
func (m *Model) NaiveRangeMs(dims, q []int) (float64, error) {
	if err := checkBox(dims, q); err != nil {
		return 0, err
	}
	st := strides(dims)
	steps := boxSteps(q)
	total := m.firstAccessMs() + float64(q[0])*m.sectorMs
	for i := 1; i < len(dims); i++ {
		if steps[i] == 0 {
			continue
		}
		// A step along dim i jumps stride_i blocks minus the sweep
		// already consumed by lower dimensions; the dominant term is
		// the stride itself.
		total += float64(steps[i]) * m.stepMs(st[i], q[0])
	}
	return total, nil
}

// MultiMapRangeMs estimates the total I/O time of a range query on a
// MultiMap layout.
func (m *Model) MultiMapRangeMs(spec *core.CubeSpec, dims, q []int) (float64, error) {
	if err := checkBox(dims, q); err != nil {
		return 0, err
	}
	if len(dims) != spec.N() {
		return 0, fmt.Errorf("analytic: dims/spec arity mismatch")
	}
	steps := boxSteps(q)
	total := m.firstAccessMs() + float64(q[0])*m.sectorMs
	for i := 1; i < len(dims); i++ {
		if steps[i] == 0 {
			continue
		}
		// Steps along dim i are adjacency hops except when they cross a
		// cube boundary, every K_i-th step.
		cross := float64(steps[i]) / float64(spec.K[i])
		inCube := float64(steps[i]) - cross
		total += inCube*m.semiSeqStepMs(q[0]) + cross*m.cubeJumpMs(q[0])
	}
	// Dim0 cube crossings are same-track slot hops bridged by the
	// layout: a couple of padding sectors per extra cube.
	if extra := (q[0] - 1) / spec.K[0]; extra > 0 {
		runs := int64(1)
		for i := 1; i < len(q); i++ {
			runs *= int64(q[i])
		}
		total += float64(runs) * float64(extra) * 2 * m.sectorMs
	}
	return total, nil
}

func checkBox(dims, q []int) error {
	if len(dims) != len(q) {
		return fmt.Errorf("analytic: box arity %d, dims arity %d", len(q), len(dims))
	}
	for i := range q {
		if q[i] < 1 || q[i] > dims[i] {
			return fmt.Errorf("analytic: box side %d on dim %d outside [1,%d]", q[i], i, dims[i])
		}
	}
	return nil
}

// SpeedupEstimate returns the modelled Naive/MultiMap total-time ratio
// for a range query — the quantity Fig. 6(b) plots per selectivity.
func (m *Model) SpeedupEstimate(spec *core.CubeSpec, dims, q []int) (float64, error) {
	nv, err := m.NaiveRangeMs(dims, q)
	if err != nil {
		return 0, err
	}
	mm, err := m.MultiMapRangeMs(spec, dims, q)
	if err != nil {
		return 0, err
	}
	return nv / mm, nil
}

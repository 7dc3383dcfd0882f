package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/octree"
)

// quakeDepth maps the scale knob to the octree's maximum depth:
// scale 1 gives the full synthetic earthquake tree (~660k elements).
func quakeDepth(scale float64) int {
	switch {
	case scale >= 0.9:
		return 7
	case scale >= 0.4:
		return 6
	default:
		return 5
	}
}

// quakeStore builds the earthquake dataset under one mapping on a
// fresh single-disk volume.
func quakeStore(g *disk.Geometry, kind mapping.Kind, md int) (*octree.Store, *lvm.Volume, *octree.Tree, error) {
	v, err := lvm.New(0, g)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := octree.NewQuakeTree(md)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := octree.NewStore(v, tr, kind)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, v, tr, nil
}

// Fig7aResult holds ms/cell per disk, mapping, axis.
type Fig7aResult map[string]map[string][3]float64

// Fig7aQuakeBeams reproduces Fig. 7(a): beam queries along X/Y/Z of the
// earthquake dataset, average I/O time per fetched element.
func Fig7aQuakeBeams(cfg Config) (*Table, Fig7aResult, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	md := quakeDepth(cfg.Scale)
	res := Fig7aResult{}
	t := &Table{
		ID:     "fig7a",
		Title:  fmt.Sprintf("Earthquake dataset beam queries (octree depth %d): avg I/O time per cell [ms]", md),
		Header: []string{"disk", "mapping", "X", "Y", "Z"},
	}
	for _, g := range disks {
		res[g.Name] = map[string][3]float64{}
		for _, kind := range mapping.Kinds() {
			s, v, tr, err := quakeStore(g, kind, md)
			if err != nil {
				return nil, nil, err
			}
			var per [3]float64
			for axis := 0; axis < 3; axis++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(axis)*1000))
				var total float64
				var cells int64
				for r := 0; r < cfg.Runs; r++ {
					v.Disk(0).RandomizePosition(rng)
					p := [3]int{
						rng.Intn(tr.DomainSide()),
						rng.Intn(tr.DomainSide()),
						rng.Intn(tr.DomainSide()),
					}
					leaves, err := s.BeamLeaves(axis, p)
					if err != nil {
						return nil, nil, err
					}
					st, err := s.Query(leaves)
					if err != nil {
						return nil, nil, err
					}
					total += st.TotalMs
					cells += st.Cells
				}
				per[axis] = total / float64(cells)
			}
			res[g.Name][kind.String()] = per
			t.Rows = append(t.Rows, []string{
				g.Name, kind.String(), f3(per[0]), f3(per[1]), f3(per[2]),
			})
		}
	}
	return t, res, nil
}

// Fig7bSelectivities are the paper's earthquake range selectivities, in
// percent of the domain volume.
var Fig7bSelectivities = []float64{0.0001, 0.001, 0.003}

// Fig7bResult holds total I/O ms per disk, mapping, selectivity.
type Fig7bResult map[string]map[string]map[float64]float64

// Fig7bQuakeRanges reproduces Fig. 7(b): small range queries on the
// earthquake dataset; total I/O time in ms.
func Fig7bQuakeRanges(cfg Config) (*Table, Fig7bResult, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	md := quakeDepth(cfg.Scale)
	res := Fig7bResult{}
	t := &Table{
		ID:    "fig7b",
		Title: fmt.Sprintf("Earthquake dataset range queries (octree depth %d): total I/O time [ms]", md),
	}
	t.Header = []string{"selectivity_%"}
	for _, g := range disks {
		for _, kind := range mapping.Kinds() {
			t.Header = append(t.Header, g.Name+"/"+kind.String())
		}
	}
	// store per (disk, kind), reused across selectivities.
	type sk struct{ d, k string }
	stores := map[sk]*octree.Store{}
	vols := map[sk]*lvm.Volume{}
	var domain int
	for _, g := range disks {
		for _, kind := range mapping.Kinds() {
			s, v, tr, err := quakeStore(g, kind, md)
			if err != nil {
				return nil, nil, err
			}
			stores[sk{g.Name, kind.String()}] = s
			vols[sk{g.Name, kind.String()}] = v
			domain = tr.DomainSide()
		}
		res[g.Name] = map[string]map[float64]float64{}
		for _, kind := range mapping.Kinds() {
			res[g.Name][kind.String()] = map[float64]float64{}
		}
	}
	for _, sel := range Fig7bSelectivities {
		row := []string{fmt.Sprintf("%g", sel)}
		vol := float64(domain) * float64(domain) * float64(domain) * sel / 100
		side := int(math.Cbrt(vol) + 0.5)
		if side < 1 {
			side = 1
		}
		for _, g := range disks {
			for _, kind := range mapping.Kinds() {
				s := stores[sk{g.Name, kind.String()}]
				v := vols[sk{g.Name, kind.String()}]
				rng := rand.New(rand.NewSource(cfg.Seed + int64(sel*1e6)))
				var total float64
				for r := 0; r < cfg.Runs; r++ {
					v.Disk(0).RandomizePosition(rng)
					var lo, hi [3]int
					for i := 0; i < 3; i++ {
						lo[i] = rng.Intn(domain - side + 1)
						hi[i] = lo[i] + side
					}
					leaves, err := s.RangeLeaves(lo, hi)
					if err != nil {
						return nil, nil, err
					}
					st, err := s.Query(leaves)
					if err != nil {
						return nil, nil, err
					}
					total += st.TotalMs
				}
				avg := total / float64(cfg.Runs)
				res[g.Name][kind.String()][sel] = avg
				row = append(row, f2(avg))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, res, nil
}

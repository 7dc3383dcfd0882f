package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/disk"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

// synthChunkDims returns the per-disk chunk of the synthetic 3-D
// dataset at the configured scale (259^3 at scale 1, §5.3).
func synthChunkDims(scale float64) []int {
	side := int(259 * scale)
	if side < 16 {
		side = 16
	}
	return []int{side, side, side}
}

// buildExecutor maps the dataset on a fresh single-disk volume, wiring
// the run's engine knobs (policy override, planner chunking) through.
func buildExecutor(cfg Config, g *disk.Geometry, kind mapping.Kind, dims []int) (*query.Executor, *lvm.Volume, error) {
	v, err := lvm.New(0, g)
	if err != nil {
		return nil, nil, err
	}
	m, err := mapping.New(kind, v, dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		return nil, nil, err
	}
	opts, err := cfg.execOptions()
	if err != nil {
		return nil, nil, err
	}
	return query.NewExecutorOptions(v, m, opts), v, nil
}

// Fig6aResult holds ms/cell per disk, mapping, and dimension.
type Fig6aResult map[string]map[string][3]float64

// Fig6aBeams reproduces Fig. 6(a): beam queries along Dim0/Dim1/Dim2 of
// the synthetic uniform 3-D dataset, average I/O time per cell over
// cfg.Runs random beams.
func Fig6aBeams(cfg Config) (*Table, Fig6aResult, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	dims := synthChunkDims(cfg.Scale)
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return nil, nil, err
	}
	res := Fig6aResult{}
	t := &Table{
		ID:     "fig6a",
		Title:  fmt.Sprintf("Synthetic 3-D beam queries, %v cells/disk: avg I/O time per cell [ms]", dims),
		Header: []string{"disk", "mapping", "Dim0", "Dim1", "Dim2"},
	}
	for _, g := range disks {
		res[g.Name] = map[string][3]float64{}
		for _, kind := range mapping.Kinds() {
			e, v, err := buildExecutor(cfg, g, kind, dims)
			if err != nil {
				return nil, nil, err
			}
			var per [3]float64
			for dim := 0; dim < 3; dim++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(dim)*1000))
				var total float64
				var cells int64
				for r := 0; r < cfg.Runs; r++ {
					v.Disk(0).RandomizePosition(rng)
					fixed, err := grid.RandomBeam(rng, dim)
					if err != nil {
						return nil, nil, err
					}
					st, err := e.Beam(dim, fixed)
					if err != nil {
						return nil, nil, err
					}
					total += st.TotalMs
					cells += st.Cells
				}
				per[dim] = total / float64(cells)
			}
			res[g.Name][kind.String()] = per
			t.Rows = append(t.Rows, []string{
				g.Name, kind.String(), f3(per[0]), f3(per[1]), f3(per[2]),
			})
		}
	}
	return t, res, nil
}

// Fig6bSelectivities is the paper's selectivity sweep (percent).
var Fig6bSelectivities = []float64{0.01, 0.1, 1, 5, 10, 20, 40, 60, 80, 100}

// Fig6bResult holds speedup vs Naive per disk, mapping, selectivity.
type Fig6bResult map[string]map[string]map[float64]float64

// Fig6bRanges reproduces Fig. 6(b): equal-side-length cube range
// queries at increasing selectivity; speedup of each mapping relative
// to Naive on the same boxes.
func Fig6bRanges(cfg Config) (*Table, Fig6bResult, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	dims := synthChunkDims(cfg.Scale)
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return nil, nil, err
	}
	res := Fig6bResult{}
	t := &Table{
		ID:    "fig6b",
		Title: fmt.Sprintf("Synthetic 3-D range queries, %v cells/disk: speedup relative to Naive", dims),
	}
	t.Header = []string{"selectivity_%"}
	for _, g := range disks {
		for _, kind := range mapping.Kinds() {
			if kind == mapping.Naive {
				continue
			}
			t.Header = append(t.Header, g.Name+"/"+kind.String())
		}
	}

	type cell struct{ total float64 }
	// totals[disk][kind][sel]
	totals := map[string]map[string]map[float64]*cell{}
	for _, g := range disks {
		totals[g.Name] = map[string]map[float64]*cell{}
		for _, kind := range mapping.Kinds() {
			e, v, err := buildExecutor(cfg, g, kind, dims)
			if err != nil {
				return nil, nil, err
			}
			byKind := map[float64]*cell{}
			totals[g.Name][kind.String()] = byKind
			for _, sel := range Fig6bSelectivities {
				runs := rangeRuns(cfg, sel)
				// Identical boxes across mappings: seed depends only on
				// selectivity and run index.
				var total float64
				for r := 0; r < runs; r++ {
					rng := rand.New(rand.NewSource(cfg.Seed + int64(sel*1000) + int64(r)*7919))
					v.Disk(0).RandomizePosition(rng)
					lo, hi, err := grid.RandomRange(rng, sel/100)
					if err != nil {
						return nil, nil, err
					}
					st, err := e.Range(lo, hi)
					if err != nil {
						return nil, nil, err
					}
					total += st.TotalMs
				}
				byKind[sel] = &cell{total: total / float64(runs)}
			}
		}
	}
	for _, g := range disks {
		res[g.Name] = map[string]map[float64]float64{}
		for _, kind := range mapping.Kinds() {
			if kind == mapping.Naive {
				continue
			}
			res[g.Name][kind.String()] = map[float64]float64{}
		}
	}
	for _, sel := range Fig6bSelectivities {
		row := []string{fmt.Sprintf("%g", sel)}
		for _, g := range disks {
			naive := totals[g.Name][mapping.Naive.String()][sel].total
			for _, kind := range mapping.Kinds() {
				if kind == mapping.Naive {
					continue
				}
				sp := naive / totals[g.Name][kind.String()][sel].total
				res[g.Name][kind.String()][sel] = sp
				row = append(row, f2(sp))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, res, nil
}

// rangeRuns bounds repetitions: large selectivities cover most of the
// dataset, so extra random boxes add little and cost a lot.
func rangeRuns(cfg Config, selPct float64) int {
	switch {
	case selPct >= 40:
		return 1
	case selPct >= 5:
		return min(cfg.Runs, 3)
	default:
		return min(cfg.Runs, 5)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

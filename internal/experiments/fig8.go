package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/mapping"
	"repro/internal/olap"
)

// Fig8Result holds ms/cell per disk, mapping, query name.
type Fig8Result map[string]map[string]map[string]float64

// Fig8OLAP reproduces Fig. 8: the five OLAP queries Q1-Q5 on the TPC-H
// derived 4-D cube chunk; average I/O time per cell.
func Fig8OLAP(cfg Config) (*Table, Fig8Result, error) {
	cfg = cfg.Defaults()
	disks, err := cfg.resolve()
	if err != nil {
		return nil, nil, err
	}
	dims, err := olap.ScaledChunkDims(cfg.Scale)
	if err != nil {
		return nil, nil, err
	}
	res := Fig8Result{}
	t := &Table{
		ID:     "fig8",
		Title:  fmt.Sprintf("OLAP queries on the TPC-H cube chunk %v: avg I/O time per cell [ms]", dims),
		Header: []string{"disk", "mapping", "Q1", "Q2", "Q3", "Q4", "Q5"},
	}
	for _, g := range disks {
		res[g.Name] = map[string]map[string]float64{}
		for _, kind := range mapping.Kinds() {
			e, v, err := buildExecutor(cfg, g, kind, dims)
			if err != nil {
				return nil, nil, err
			}
			byQ := map[string]float64{}
			res[g.Name][kind.String()] = byQ
			row := []string{g.Name, kind.String()}
			// The same query instances across mappings: the rng depends
			// only on the seed and run index.
			for qi := 0; qi < 5; qi++ {
				var total float64
				var cells int64
				for r := 0; r < cfg.Runs; r++ {
					rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*104729))
					qs, err := olap.Queries(rng, dims)
					if err != nil {
						return nil, nil, err
					}
					q := qs[qi]
					v.Disk(0).RandomizePosition(rng)
					st, err := e.Range(q.Lo, q.Hi)
					if err != nil {
						return nil, nil, err
					}
					total += st.TotalMs
					cells += st.Cells
				}
				name := fmt.Sprintf("Q%d", qi+1)
				byQ[name] = total / float64(cells)
				row = append(row, f3(byQ[name]))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, res, nil
}

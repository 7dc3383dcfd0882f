// Command fig6probe prints raw simulated TotalMs for the paper's
// Figure-6 configurations (beams and ranges on the synthetic 3-D grid)
// so two builds can be diffed value by value.
//
// Args: "small" shrinks the grid to 64³ (milliseconds instead of about a
// second); "shard" routes every query through a single-shard
// scatter-gather session instead of a lone session on the volume —
// diffing against the plain mode is the shard layer's single-shard
// equivalence evidence. main_test.go pins the small (plain and shard)
// and full-scale outputs to testdata/*.golden.
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/dataset"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
	"repro/internal/shard"
)

func main() {
	side := 259
	mode := ""
	for _, arg := range os.Args[1:] {
		switch arg {
		case "small":
			side = 64
		case "shard":
			mode = arg
		default:
			fmt.Fprintf(os.Stderr, "fig6probe: unknown arg %q (want small or shard)\n", arg)
			os.Exit(2)
		}
	}
	if err := probe(os.Stdout, side, mode); err != nil {
		fmt.Fprintln(os.Stderr, "fig6probe:", err)
		os.Exit(1)
	}
}

// probe writes one line per Fig-6 query on a side³ grid, for every
// layout, running each query in the given mode ("" or "shard").
func probe(w io.Writer, side int, mode string) error {
	dims := []int{side, side, side}
	grid, err := dataset.NewGrid(dims...)
	if err != nil {
		return err
	}
	g := disk.AtlasTenKIII()
	for _, kind := range mapping.Kinds() {
		v, err := lvm.New(0, g)
		if err != nil {
			return err
		}
		// beam and rangeQ run one query in the selected execution mode.
		var beam func(dim int, fixed []int) (engine.Stats, error)
		var rangeQ func(lo, hi []int) (engine.Stats, error)
		switch mode {
		case "shard":
			svc := engine.NewService(v, engine.ServiceOptions{})
			defer svc.Close()
			grp, err := shard.Build([]*engine.Service{svc}, kind, dims,
				mapping.Options{DiskIdx: 0}, query.ExecOptions{})
			if err != nil {
				return err
			}
			ss := grp.Begin(engine.SessionOptions{})
			beam = func(dim int, fixed []int) (engine.Stats, error) {
				return ss.Beam(context.Background(), dim, fixed)
			}
			rangeQ = func(lo, hi []int) (engine.Stats, error) {
				return ss.Box(context.Background(), lo, hi)
			}
		default:
			m, err := mapping.New(kind, v, dims, mapping.Options{DiskIdx: 0})
			if err != nil {
				return err
			}
			e := query.NewExecutor(v, m)
			beam, rangeQ = e.Beam, e.Range
		}
		// Fig 6(a): beams along each dimension.
		for dim := 0; dim < 3; dim++ {
			rng := rand.New(rand.NewSource(int64(dim)*1000 + 3))
			for r := 0; r < 3; r++ {
				v.Disk(0).RandomizePosition(rng)
				fixed, err := grid.RandomBeam(rng, dim)
				if err != nil {
					return err
				}
				st, err := beam(dim, fixed)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "%s beam d%d r%d total=%.6f cells=%d reqs=%d\n",
					kind, dim, r, st.TotalMs, st.Cells, st.Requests)
			}
		}
		// Fig 6(b): range queries at the paper's selectivities.
		for _, sel := range []float64{0.01, 1, 10, 40, 100} {
			rng := rand.New(rand.NewSource(int64(sel*1000) + 7919))
			v.Disk(0).RandomizePosition(rng)
			lo, hi, err := grid.RandomRange(rng, sel/100)
			if err != nil {
				return err
			}
			st, err := rangeQ(lo, hi)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s range sel%g total=%.6f cells=%d reqs=%d pad=%d\n",
				kind, sel, st.TotalMs, st.Cells, st.Requests, st.Padding)
		}
	}
	return nil
}

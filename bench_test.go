package multimap

// One benchmark per paper artifact (Fig. 1, 6, 7, 8) plus ablations for
// the design choices PAPER.md calls out. Benchmarks run the figure
// drivers at a reduced scale so `go test -bench=.` completes in
// minutes; `cmd/mmbench` runs them at paper scale.
//
// Reported custom metrics carry the figure's headline quantity
// (ms/cell, speedup) so the bench output doubles as a results table.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

// benchCfg is the shared reduced-scale configuration.
func benchCfg() experiments.Config {
	return experiments.Config{
		Disks: []disk.ModelName{"atlas10k3", "cheetah36es"},
		Scale: 0.5,
		Runs:  5,
		Seed:  1,
	}
}

func BenchmarkFig1aSeekProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1aSeekProfile(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1bAdjacency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1bAdjacency(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aBeams(b *testing.B) {
	var res experiments.Fig6aResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Fig6aBeams(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for diskName, byKind := range res {
		mm := byKind["MultiMap"]
		b.ReportMetric(mm[1], "ms/cell-dim1-multimap-"+shortName(diskName))
		break
	}
}

func BenchmarkFig6bRanges(b *testing.B) {
	cfg := benchCfg()
	cfg.Disks = cfg.Disks[:1]
	cfg.Runs = 2
	var res experiments.Fig6bResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Fig6bRanges(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, byKind := range res {
		best := 0.0
		for sel, ms := range byKind["MultiMap"] {
			if sp := byKind["Naive"][sel] / ms; sp > best {
				best = sp
			}
		}
		b.ReportMetric(best, "max-speedup-multimap")
		break
	}
}

func BenchmarkFig7aQuakeBeams(b *testing.B) {
	cfg := benchCfg()
	cfg.Disks = cfg.Disks[:1]
	var res experiments.Fig7aResult
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Fig7aQuakeBeams(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, byKind := range res {
		b.ReportMetric(byKind["MultiMap"][2], "ms/cell-z-multimap")
		break
	}
}

func BenchmarkFig7bQuakeRanges(b *testing.B) {
	cfg := benchCfg()
	cfg.Disks = cfg.Disks[:1]
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7bQuakeRanges(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8OLAP(b *testing.B) {
	cfg := benchCfg()
	cfg.Disks = cfg.Disks[:1]
	cfg.Runs = 2
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, err = experiments.Fig8OLAP(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, byKind := range res {
		b.ReportMetric(byKind["MultiMap"]["Q5"], "ms/cell-q5-multimap")
		break
	}
}

func shortName(disk string) string {
	if len(disk) > 6 {
		return disk[:6]
	}
	return disk
}

// --- Ablations -------------------------------------------------------

// BenchmarkAblationAdjacencyDepth sweeps the exported D: smaller D
// shrinks the basic cube's middle dimensions and pushes more steps to
// full cube jumps (Eq. 3 / §4.3).
func BenchmarkAblationAdjacencyDepth(b *testing.B) {
	dims := []int{130, 130, 130}
	for _, d := range []int{16, 64, 128} {
		b.Run(depthName(d), func(b *testing.B) {
			var per float64
			for i := 0; i < b.N; i++ {
				v, err := lvm.New(d, disk.AtlasTenKIII())
				if err != nil {
					b.Fatal(err)
				}
				m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: 0})
				if err != nil {
					b.Fatal(err)
				}
				e := query.NewExecutor(v, m)
				st, err := e.Beam(2, []int{10, 10, 0})
				if err != nil {
					b.Fatal(err)
				}
				per = st.MsPerCell()
			}
			b.ReportMetric(per, "ms/cell-dim2-beam")
		})
	}
}

func depthName(d int) string {
	switch d {
	case 16:
		return "D16"
	case 64:
		return "D64"
	default:
		return "D128"
	}
}

// BenchmarkAblationScheduler compares the disk's SPTF scheduler against
// naive FIFO on a MultiMap Dim1 beam — the mechanism §5.2 relies on.
func BenchmarkAblationScheduler(b *testing.B) {
	dims := []int{130, 130, 130}
	for _, policy := range []disk.SchedPolicy{disk.SchedFIFO, disk.SchedSPTF} {
		b.Run(policy.String(), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				v, err := lvm.New(0, disk.AtlasTenKIII())
				if err != nil {
					b.Fatal(err)
				}
				m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: 0})
				if err != nil {
					b.Fatal(err)
				}
				// Issue a shuffled Dim1 beam directly.
				var reqs []lvm.Request
				for x1 := 0; x1 < dims[1]; x1++ {
					vlbn, err := m.CellVLBN([]int{7, x1, 9})
					if err != nil {
						b.Fatal(err)
					}
					reqs = append(reqs, lvm.Request{VLBN: vlbn, Count: 1})
				}
				rand.New(rand.NewSource(3)).Shuffle(len(reqs), func(i, j int) {
					reqs[i], reqs[j] = reqs[j], reqs[i]
				})
				st, err := engine.OnVolume(v).RunPlan(context.Background(), engine.Static(reqs, policy), engine.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ms = st.TotalMs / float64(st.Cells)
			}
			b.ReportMetric(ms, "ms/cell")
		})
	}
}

// BenchmarkAblationDeclustering measures elapsed time of a fixed slab
// fetch as drives are added (§4.4).
func BenchmarkAblationDeclustering(b *testing.B) {
	dims := []int{130, 130, 130}
	for _, n := range []int{1, 2, 4} {
		b.Run(diskCount(n), func(b *testing.B) {
			var elapsed float64
			for i := 0; i < b.N; i++ {
				geoms := make([]*disk.Geometry, n)
				for j := range geoms {
					geoms[j] = disk.AtlasTenKIII()
				}
				v, err := lvm.New(0, geoms...)
				if err != nil {
					b.Fatal(err)
				}
				m, err := mapping.New(mapping.MultiMap, v, dims, mapping.Options{DiskIdx: -1})
				if err != nil {
					b.Fatal(err)
				}
				e := query.NewExecutor(v, m)
				st, err := e.Range([]int{0, 0, 0}, []int{130, 130, 16})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = st.ElapsedMs
			}
			b.ReportMetric(elapsed, "elapsed-ms")
		})
	}
}

func diskCount(n int) string {
	switch n {
	case 1:
		return "1disk"
	case 2:
		return "2disks"
	default:
		return "4disks"
	}
}

// BenchmarkMappingConstruction measures the cost of building a MultiMap
// placement (chain materialization is one GetAdjacent call per track).
func BenchmarkMappingConstruction(b *testing.B) {
	v, err := lvm.New(0, disk.AtlasTenKIII())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.New(mapping.MultiMap, v, []int{130, 130, 130}, mapping.Options{DiskIdx: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellLookup measures the mapping's cell-to-LBN hot path.
func BenchmarkCellLookup(b *testing.B) {
	v, err := lvm.New(0, disk.AtlasTenKIII())
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []mapping.Kind{mapping.Naive, mapping.ZOrder, mapping.Hilbert, mapping.MultiMap} {
		m, err := mapping.New(kind, v, []int{130, 130, 130}, mapping.Options{DiskIdx: 0})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			cell := make([]int, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cell[0], cell[1], cell[2] = rng.Intn(130), rng.Intn(130), rng.Intn(130)
				if _, err := m.CellVLBN(cell); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

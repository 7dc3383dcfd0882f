package disk

import (
	"fmt"
	"math/rand"
	"testing"
)

func BenchmarkDecode(b *testing.B) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(1))
	lbns := make([]int64, 1024)
	for i := range lbns {
		lbns[i] = rng.Int63n(g.TotalBlocks())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Decode(lbns[i%len(lbns)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdjacentBlock(b *testing.B) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(2))
	lbns := make([]int64, 1024)
	for i := range lbns {
		lbns[i] = rng.Int63n(g.TotalBlocks() / 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.AdjacentBlock(lbns[i%len(lbns)], 1+i%128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessRandom(b *testing.B) {
	g := AtlasTenKIII()
	d := New(g)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Access(Request{LBN: rng.Int63n(g.TotalBlocks()), Count: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccessSemiSequential(b *testing.B) {
	g := AtlasTenKIII()
	d := New(g)
	cur := int64(10000)
	if _, err := d.Access(Request{LBN: cur, Count: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := g.AdjacentBlock(cur, 1)
		if err != nil {
			// Wrapped off the end of the drive; restart the chain.
			cur = 10000
			continue
		}
		if _, err := d.Access(Request{LBN: a, Count: 1}); err != nil {
			b.Fatal(err)
		}
		cur = a
	}
}

func BenchmarkServeBatchSPTF(b *testing.B) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(4))
	reqs := make([]Request, 256)
	for i := range reqs {
		reqs[i] = Request{LBN: rng.Int63n(g.TotalBlocks()), Count: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(g)
		if _, err := d.ServeBatch(reqs, SchedSPTF); err != nil {
			b.Fatal(err)
		}
	}
}

var sptfSink []Completion

// BenchmarkSPTF times one scheduling window of the production SPTF
// scheduler ("slab") and of the map-based reference it replaced
// ("ref"), and reports ns per request, on three shapes: a shuffled
// semi-sequential adjacency chain, uniform random blocks (Z-order's few
// large windows), and MultiMap's range windows — Dim0 runs stepped along
// adjacency chains across several basic cubes (multimapSPTFScript),
// the shape of the paper's own layout and the yardstick for the
// scheduler's per-pick cost.
func BenchmarkSPTF(b *testing.B) {
	g := AtlasTenKIII()
	shapes := []struct {
		name string
		gen  func(n int) []Request
	}{
		{"semiseq", func(n int) []Request {
			reqs := make([]Request, n)
			cur := int64(20000)
			for i := range reqs {
				reqs[i] = Request{LBN: cur, Count: 1}
				next, err := g.AdjacentBlock(cur, 1)
				if err != nil {
					b.Fatal(err)
				}
				cur = next
			}
			rand.New(rand.NewSource(17)).Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
			return reqs
		}},
		{"random", func(n int) []Request {
			rng := rand.New(rand.NewSource(4))
			reqs := make([]Request, n)
			for i := range reqs {
				reqs[i] = Request{LBN: rng.Int63n(g.TotalBlocks()), Count: 1}
			}
			return reqs
		}},
		{"multimap", func(n int) []Request {
			_, _, windows := decodeSPTFScript(multimapSPTFScript(rand.New(rand.NewSource(5)), 0, n))
			return windows[0]
		}},
	}
	impls := []struct {
		name  string
		serve func(*Disk, []Request) ([]Completion, error)
	}{
		{"slab", func(d *Disk, reqs []Request) ([]Completion, error) { return d.serveSPTF(reqs), nil }},
		{"ref", serveSPTFRef},
	}
	for _, shape := range shapes {
		for _, n := range []int{1, 16, 256, 4096} {
			reqs := shape.gen(n)
			for _, impl := range impls {
				b.Run(fmt.Sprintf("%s/n=%d/%s", shape.name, n, impl.name), func(b *testing.B) {
					d := New(g)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						d.Reset()
						comps, err := impl.serve(d, reqs)
						if err != nil {
							b.Fatal(err)
						}
						sptfSink = comps
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/request")
				})
			}
		}
	}
}

//go:build !race

package disk

import (
	"math/rand"
	"testing"
)

// TestServeBatchSPTFAllocs pins what one 256-request SPTF window
// allocates: newSPTF's three slabs (entries, tracks, bands) and the
// completion slice, whatever the window's shape. A pick allocates
// nothing, and the drive keeps no slab between windows — retained slabs
// grow to the largest window ever served (4096 requests on a write-back
// flush) and stay on the heap.
func TestServeBatchSPTFAllocs(t *testing.T) {
	const budget = 4
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(4))
	random := make([]Request, 256)
	for i := range random {
		random[i] = Request{LBN: rng.Int63n(g.TotalBlocks() - 8), Count: 1 + rng.Intn(8)}
	}
	_, _, windows := decodeSPTFScript(multimapSPTFScript(rand.New(rand.NewSource(5)), 0, 256))
	for _, shape := range []struct {
		name string
		reqs []Request
	}{{"random", random}, {"multimap", windows[0]}} {
		d := New(g)
		allocs := testing.AllocsPerRun(20, func() {
			d.Reset()
			if _, err := d.ServeBatch(shape.reqs, SchedSPTF); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s: %d-request SPTF window allocates %.0f times, budget %d", shape.name, len(shape.reqs), allocs, budget)
		}
	}
}

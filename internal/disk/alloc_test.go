//go:build !race

package disk

import (
	"math/rand"
	"testing"
)

// TestServeBatchSPTFAllocs pins what one 256-request SPTF window
// allocates into a buffer its caller keeps: nothing, whatever the
// window's shape. The drive builds the window's index in the slabs the
// last window within sptfKeep left it, a pick allocates nothing, and
// the completions go where the caller says. A longer window — a
// write-back flush issues up to 4096 requests — builds its own slabs
// and drops them, so the drive never keeps more than sptfKeep entries.
func TestServeBatchSPTFAllocs(t *testing.T) {
	g := AtlasTenKIII()
	rng := rand.New(rand.NewSource(4))
	random := make([]Request, sptfKeep)
	for i := range random {
		random[i] = Request{LBN: rng.Int63n(g.TotalBlocks() - 8), Count: 1 + rng.Intn(8)}
	}
	_, _, windows := decodeSPTFScript(multimapSPTFScript(rand.New(rand.NewSource(5)), 0, sptfKeep))
	for _, shape := range []struct {
		name string
		reqs []Request
	}{{"random", random}, {"multimap", windows[0]}} {
		d := New(g)
		var out []Completion
		serve := func() {
			var err error
			if out, err = d.ServeBatch(out[:0], shape.reqs, SchedSPTF); err != nil {
				t.Fatal(err)
			}
		}
		serve() // warm: the slabs and the caller's buffer grow once
		if allocs := testing.AllocsPerRun(20, serve); allocs != 0 {
			t.Errorf("%s: %d-request SPTF window allocates %.0f times, budget 0", shape.name, len(shape.reqs), allocs)
		}
	}

	d := New(g)
	long := make([]Request, maxSPTFBatch)
	for i := range long {
		long[i] = Request{LBN: rng.Int63n(g.TotalBlocks() - 8), Count: 1 + rng.Intn(8)}
	}
	for _, reqs := range [][]Request{random, long} {
		if _, err := d.ServeBatch(nil, reqs, SchedSPTF); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.slabs; cap(s.ents) > sptfKeep || cap(s.tracks) > sptfKeep || cap(s.bands) > sptfKeep {
		t.Errorf("after a %d-request window the drive keeps slabs of %d / %d / %d entries, limit %d",
			len(long), cap(s.ents), cap(s.tracks), cap(s.bands), sptfKeep)
	}
}

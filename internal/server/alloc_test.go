//go:build !race

package server

import (
	"context"
	"testing"

	multimap "repro"
)

// TestRangeStreamAllocsPerLine: the wire allocates per streamed range,
// not per line. testing.AllocsPerRun counts every goroutine's
// allocations, so a run over HTTP counts the client and the daemon
// together: net/http, the request's decoding, the engine and the
// stream. The same ranges run on the daemon's store directly count the
// engine alone, which plans each chunk's sub-box as it goes (one
// allocation per chunk on MultiMap). What the wire adds per extra chunk
// line is the difference of the two, and reads 0: the daemon encodes
// each chunk from one reused line, and the client decodes each into one
// reused chunk. The one-chunk range reads 148 or 149 from run to run,
// so the budget is below half an allocation per extra line (12 before
// the line and the chunk were reused). (testing.AllocsPerRun cannot run
// under the race detector, hence the build tag; CI has a non-race leg
// for this file.)
func TestRangeStreamAllocsPerLine(t *testing.T) {
	spec := testSpec("alloc")
	spec.Dims = []int{16, 16, 16}
	srv, ts, c := startDaemon(t, spec)
	defer ts.Close()
	defer srv.Close(context.Background())
	ctx := context.Background()
	id, err := c.Begin(ctx, "alloc", "interactive")
	if err != nil {
		t.Fatal(err)
	}
	embedded := underlying(t, srv, "alloc").BeginQoS("interactive")
	defer embedded.Close(ctx)
	// measure runs the range [0, hi) warm and returns its chunk count
	// and its allocations over the wire and embedded.
	measure := func(hi []int) (chunks int, wire, lib float64) {
		lo := []int{0, 0, 0}
		count := func(multimap.RangeChunk) { chunks++ }
		overWire := func() {
			chunks = 0
			if _, err := c.RangeQuery(ctx, "alloc", id, lo, hi, 0, count); err != nil {
				t.Fatal(err)
			}
		}
		direct := func() {
			chunks = 0
			if _, err := embedded.RangeQueryStream(ctx, lo, hi, count); err != nil {
				t.Fatal(err)
			}
		}
		overWire() // warm: the connection and the pools on both sides
		direct()
		return chunks, testing.AllocsPerRun(50, overWire), testing.AllocsPerRun(50, direct)
	}
	few, fewWire, fewLib := measure([]int{1, 1, 1})
	many, manyWire, manyLib := measure([]int{16, 16, 16})
	if few != 1 || many < 16 {
		t.Fatalf("ranges stream %d and %d chunks; want 1 and at least 16", few, many)
	}
	extra := float64(many - few)
	perChunk := (manyLib - fewLib) / extra
	perLine := (manyWire-fewWire)/extra - perChunk
	t.Logf("over the wire %.0f / %.0f allocs, embedded %.0f / %.0f, for %d / %d chunks: "+
		"the engine allocates %.2f per extra chunk, the wire %.2f per extra line",
		fewWire, manyWire, fewLib, manyLib, few, many, perChunk, perLine)
	if perLine >= 0.5 {
		t.Errorf("each extra chunk line allocates %.2f times on the wire; want 0", perLine)
	}
}

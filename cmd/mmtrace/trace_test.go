package main

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
)

func capture(t *testing.T) *Trace {
	t.Helper()
	v, err := lvm.New(16, disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	comps, elapsed, err := v.ServeBatch([]lvm.Request{
		{VLBN: 100, Count: 4},
		{VLBN: 2000, Count: 1},
		{VLBN: 104, Count: 2},
	}, disk.SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	tr.Add(comps, elapsed)
	return tr
}

func TestTraceCapture(t *testing.T) {
	tr := capture(t)
	comps := tr.comps
	if len(comps) != 3 {
		t.Fatalf("captured %d requests, want 3", len(comps))
	}
	for i, c := range comps {
		if c.Cost.TotalMs() <= 0 {
			t.Errorf("completion %d has non-positive total", i)
		}
		if i > 0 && c.FinishMs <= comps[i-1].FinishMs {
			t.Errorf("completion %d finishes at %v, before its predecessor", i, c.FinishMs)
		}
	}
	if comps[0].Req.VLBN != 100 || comps[0].Req.Count != 4 {
		t.Errorf("first completion wrong: %+v", comps[0])
	}
}

// TestTraceKeepsCopies: the volume's next ServeBatch reuses the buffer
// its completions came in, so Add must copy them.
func TestTraceKeepsCopies(t *testing.T) {
	v, err := lvm.New(16, disk.SmallTestDisk())
	if err != nil {
		t.Fatal(err)
	}
	var tr Trace
	var elapsedMs float64
	for _, r := range []lvm.Request{{VLBN: 100, Count: 4}, {VLBN: 2000, Count: 1}} {
		comps, elapsed, err := v.ServeBatch([]lvm.Request{r}, disk.SchedFIFO)
		if err != nil {
			t.Fatal(err)
		}
		tr.Add(comps, elapsed)
		elapsedMs += elapsed
	}
	if len(tr.comps) != 2 || tr.comps[0].Req.VLBN != 100 || tr.comps[1].Req.VLBN != 2000 {
		t.Fatalf("trace holds %+v, want the two batches' completions", tr.comps)
	}
	if got := tr.Summarize().ElapsedMs; got != elapsedMs {
		t.Errorf("summary elapsed %v, want the batches' %v", got, elapsedMs)
	}
}

func TestSummarize(t *testing.T) {
	tr := capture(t)
	s := tr.Summarize()
	if s.Requests != 3 || s.Cells != 7 {
		t.Fatalf("summary %+v", s)
	}
	if sum := s.CommandMs + s.SeekMs + s.RotateMs + s.TransferMs; s.TotalMs <= 0 || math.Abs(s.TotalMs-sum) > 1e-9 {
		t.Fatalf("summary totals inconsistent: %+v", s)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
	// The percentiles are engine.Percentile's, the one definition.
	var pos []float64
	for _, c := range tr.comps {
		pos = append(pos, c.Cost.CommandMs+c.Cost.SeekMs+c.Cost.RotateMs)
	}
	sort.Float64s(pos)
	for _, c := range []struct {
		got, q float64
	}{{s.P50, 0.50}, {s.P90, 0.90}, {s.P99, 0.99}} {
		if want := engine.Percentile(pos, c.q); c.got != want {
			t.Errorf("p%g = %v, engine.Percentile gives %v", 100*c.q, c.got, want)
		}
	}
	if s.Max != pos[len(pos)-1] {
		t.Errorf("max %v, want %v", s.Max, pos[len(pos)-1])
	}
	// The text mmtrace prints, byte for byte.
	const want = "requests 3, blocks 7, total 18.1 ms\n" +
		"  command 0.6 ms (3%), seek 6.0 ms (33%), rotate 10.5 ms (58%), transfer 1.1 ms (6%)\n" +
		"  positioning per request: p50 5.25, p90 7.77, p99 8.34, max 8.40 ms"
	if out := s.String(); out != want {
		t.Errorf("summary:\n%s\nwant:\n%s", out, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var tr Trace
	s := tr.Summarize()
	if s.Requests != 0 || s.Max != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	const want = "requests 0, blocks 0, total 0.0 ms\n" +
		"  positioning per request: p50 0.00, p90 0.00, p99 0.00, max 0.00 ms"
	if out := s.String(); out != want {
		t.Errorf("empty summary:\n%s\nwant:\n%s", out, want)
	}
}

func TestDump(t *testing.T) {
	tr := capture(t)
	// The table mmtrace prints, byte for byte.
	const header = "   seq         vlbn  count  disk      cmd     seek      rot     xfer     finish\n"
	rows := []string{
		"     0          100      4     0    0.200    1.000    4.050    0.600       5.85\n",
		"     1         2000      1     0    0.200    2.500    5.700    0.150      14.40\n",
		"     2          104      2     0    0.200    2.500    0.750    0.300      18.15\n",
	}
	if got, want := tr.Dump(0), header+strings.Join(rows, ""); got != want {
		t.Errorf("full dump:\n%s\nwant:\n%s", got, want)
	}
	if got, want := tr.Dump(2), header+strings.Join(rows[:2], ""); got != want {
		t.Errorf("short dump:\n%s\nwant:\n%s", got, want)
	}
}

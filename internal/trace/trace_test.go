package trace

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
	comps, _, err := v.ServeBatch([]lvm.Request{
		{VLBN: 100, Count: 4},
		{VLBN: 2000, Count: 1},
		{VLBN: 104, Count: 2},
	}, disk.SchedFIFO)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{}
	tr.Add(comps)
	return tr
}

func TestTraceCapture(t *testing.T) {
	tr := capture(t)
	if tr.Len() != 3 {
		t.Fatalf("Len=%d, want 3", tr.Len())
	}
	recs := tr.Records()
	for i, r := range recs {
		if r.Seq != i {
			t.Errorf("record %d has seq %d", i, r.Seq)
		}
		if r.TotalMs() <= 0 {
			t.Errorf("record %d has non-positive total", i)
		}
		if r.TotalMs() != r.CmdMs+r.SeekMs+r.RotMs+r.XferMs {
			t.Errorf("record %d total mismatch", i)
		}
	}
	if recs[0].VLBN != 100 || recs[0].Count != 4 {
		t.Errorf("first record wrong: %+v", recs[0])
	}
}

func TestSummarize(t *testing.T) {
	tr := capture(t)
	s := tr.Summarize()
	if s.Requests != 3 || s.Blocks != 7 {
		t.Fatalf("summary %+v", s)
	}
	if sum := s.CmdMs + s.SeekMs + s.RotMs + s.XferMs; s.TotalMs <= 0 || math.Abs(s.TotalMs-sum) > 1e-9 {
		t.Fatalf("summary totals inconsistent: %+v", s)
	}
	if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.Max {
		t.Fatalf("percentiles not monotone: %+v", s)
	}
	// The percentiles are engine.Percentile's, the one definition.
	var pos []float64
	for _, r := range tr.Records() {
		pos = append(pos, r.CmdMs+r.SeekMs+r.RotMs)
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
	out := s.String()
	for _, want := range []string{"requests 3", "command", "positioning"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var tr Trace
	s := tr.Summarize()
	if s.Requests != 0 || s.Max != 0 {
		t.Errorf("empty summary: %+v", s)
	}
	if !strings.Contains(s.String(), "requests 0") {
		t.Error("empty summary renders wrong")
	}
}

func TestDump(t *testing.T) {
	tr := capture(t)
	full := tr.Dump(0)
	if strings.Count(full, "\n") != 4 { // header + 3 rows
		t.Errorf("full dump wrong:\n%s", full)
	}
	short := tr.Dump(2)
	if strings.Count(short, "\n") != 3 {
		t.Errorf("short dump wrong:\n%s", short)
	}
	if !strings.Contains(full, "2000") {
		t.Error("dump missing VLBN column data")
	}
}

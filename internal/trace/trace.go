// Package trace captures per-request service records from the
// simulated volume and summarizes them: totals, component breakdowns,
// and latency percentiles. The mmtrace tool uses it to show *why* a
// mapping behaves the way it does, request by request.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/lvm"
)

// Record is one serviced request.
type Record struct {
	Seq      int
	VLBN     int64
	Count    int
	DiskIdx  int
	CmdMs    float64
	SeekMs   float64
	RotMs    float64
	XferMs   float64
	FinishMs float64
}

// TotalMs returns the request's service time.
func (r Record) TotalMs() float64 { return r.CmdMs + r.SeekMs + r.RotMs + r.XferMs }

// Trace is an ordered capture of request completions.
type Trace struct {
	records []Record
}

// Add appends completions in service order.
func (t *Trace) Add(comps []lvm.Completion) {
	for _, c := range comps {
		t.records = append(t.records, Record{
			Seq:      len(t.records),
			VLBN:     c.Req.VLBN,
			Count:    c.Req.Count,
			DiskIdx:  c.DiskIdx,
			CmdMs:    c.Cost.CommandMs,
			SeekMs:   c.Cost.SeekMs,
			RotMs:    c.Cost.RotateMs,
			XferMs:   c.Cost.TransferMs,
			FinishMs: c.FinishMs,
		})
	}
}

// Summary aggregates a trace.
type Summary struct {
	Requests int
	Blocks   int64
	TotalMs  float64
	CmdMs    float64
	SeekMs   float64
	RotMs    float64
	XferMs   float64
	// Positioning percentiles (cmd+seek+rot) in ms, by engine.Percentile.
	P50, P90, P99, Max float64
}

// Summarize computes the aggregate view.
func (t *Trace) Summarize() Summary {
	var s Summary
	pos := make([]float64, 0, len(t.records))
	for _, r := range t.records {
		s.Requests++
		s.Blocks += int64(r.Count)
		s.CmdMs += r.CmdMs
		s.SeekMs += r.SeekMs
		s.RotMs += r.RotMs
		s.XferMs += r.XferMs
		s.TotalMs += r.TotalMs()
		pos = append(pos, r.CmdMs+r.SeekMs+r.RotMs)
	}
	if len(pos) == 0 {
		return s
	}
	sort.Float64s(pos)
	s.P50, s.P90, s.P99 = engine.Percentile(pos, 0.50), engine.Percentile(pos, 0.90), engine.Percentile(pos, 0.99)
	s.Max = pos[len(pos)-1]
	return s
}

// String renders the summary.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d, blocks %d, total %.1f ms\n", s.Requests, s.Blocks, s.TotalMs)
	if s.TotalMs > 0 {
		fmt.Fprintf(&b, "  command %.1f ms (%.0f%%), seek %.1f ms (%.0f%%), rotate %.1f ms (%.0f%%), transfer %.1f ms (%.0f%%)\n",
			s.CmdMs, 100*s.CmdMs/s.TotalMs,
			s.SeekMs, 100*s.SeekMs/s.TotalMs,
			s.RotMs, 100*s.RotMs/s.TotalMs,
			s.XferMs, 100*s.XferMs/s.TotalMs)
	}
	fmt.Fprintf(&b, "  positioning per request: p50 %.2f, p90 %.2f, p99 %.2f, max %.2f ms", s.P50, s.P90, s.P99, s.Max)
	return b.String()
}

// Dump renders the first n records as a table (all if n <= 0).
func (t *Trace) Dump(n int) string {
	if n <= 0 || n > len(t.records) {
		n = len(t.records)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %6s %5s %8s %8s %8s %8s %10s\n",
		"seq", "vlbn", "count", "disk", "cmd", "seek", "rot", "xfer", "finish")
	for _, r := range t.records[:n] {
		fmt.Fprintf(&b, "%6d %12d %6d %5d %8.3f %8.3f %8.3f %8.3f %10.2f\n",
			r.Seq, r.VLBN, r.Count, r.DiskIdx, r.CmdMs, r.SeekMs, r.RotMs, r.XferMs, r.FinishMs)
	}
	return b.String()
}

package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/lvm"
)

// Trace is an ordered capture of the completions the simulated volume
// returns. Summarize folds them into totals, component breakdowns and
// positioning percentiles, and Dump lists them: *why* a mapping
// behaves the way it does, request by request.
type Trace struct {
	comps []lvm.Completion
	stats engine.Stats
}

// Add appends one served batch's completions, in service order, and
// folds them and the batch's elapsed time into the trace's totals. It
// copies comps, which lvm.Volume.ServeBatch reuses on its next call.
func (t *Trace) Add(comps []lvm.Completion, elapsedMs float64) {
	t.comps = append(t.comps, comps...)
	t.stats.AddCompletions(comps, elapsedMs)
}

// Summary aggregates a trace: the cost totals every served op reports,
// plus the positioning (cmd+seek+rot) percentiles in ms, by
// engine.Percentile.
type Summary struct {
	engine.Stats
	P50, P90, P99, Max float64
}

// Summarize computes the aggregate view.
func (t *Trace) Summarize() Summary {
	s := Summary{Stats: t.stats}
	if len(t.comps) == 0 {
		return s
	}
	pos := make([]float64, len(t.comps))
	for i, c := range t.comps {
		pos[i] = c.Cost.CommandMs + c.Cost.SeekMs + c.Cost.RotateMs
	}
	sort.Float64s(pos)
	s.P50, s.P90, s.P99 = engine.Percentile(pos, 0.50), engine.Percentile(pos, 0.90), engine.Percentile(pos, 0.99)
	s.Max = pos[len(pos)-1]
	return s
}

// String renders the summary.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d, blocks %d, total %.1f ms\n", s.Requests, s.Cells, s.TotalMs)
	if s.TotalMs > 0 {
		fmt.Fprintf(&b, "  command %.1f ms (%.0f%%), seek %.1f ms (%.0f%%), rotate %.1f ms (%.0f%%), transfer %.1f ms (%.0f%%)\n",
			s.CommandMs, 100*s.CommandMs/s.TotalMs,
			s.SeekMs, 100*s.SeekMs/s.TotalMs,
			s.RotateMs, 100*s.RotateMs/s.TotalMs,
			s.TransferMs, 100*s.TransferMs/s.TotalMs)
	}
	fmt.Fprintf(&b, "  positioning per request: p50 %.2f, p90 %.2f, p99 %.2f, max %.2f ms", s.P50, s.P90, s.P99, s.Max)
	return b.String()
}

// Dump renders the first n completions as a table (all if n <= 0).
func (t *Trace) Dump(n int) string {
	if n <= 0 || n > len(t.comps) {
		n = len(t.comps)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %6s %5s %8s %8s %8s %8s %10s\n",
		"seq", "vlbn", "count", "disk", "cmd", "seek", "rot", "xfer", "finish")
	for i, c := range t.comps[:n] {
		fmt.Fprintf(&b, "%6d %12d %6d %5d %8.3f %8.3f %8.3f %8.3f %10.2f\n",
			i, c.Req.VLBN, c.Req.Count, c.DiskIdx, c.Cost.CommandMs, c.Cost.SeekMs, c.Cost.RotateMs, c.Cost.TransferMs, c.FinishMs)
	}
	return b.String()
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"time"

	multimap "repro"
)

// Round sizing. A timed round must hold minRangesPerRound range
// queries so that its p99 has ten samples beyond it; a run makes at
// least minRounds timed rounds and keeps adding rounds until the
// --seconds budget is spent. Simulated metrics always come from the
// first minRounds rounds, so they do not depend on how fast the host
// is.
const (
	minRangesPerRound = 1000
	defaultMinRounds  = 5
	defaultSeconds    = 15 // timed budget per workload; BENCHMARK.json's run_seconds
	// setupRepeats is how many times set-up is timed for its median,
	// and setupBudgetS the total set-up time after which repeating
	// stops early: the three one-store set-ups take 20 ms and repeat in
	// full, fig6_layouts' rank tables take seconds and are built once.
	setupRepeats = 15
	setupBudgetS = 2.0
	maxFailures  = 8 // failure messages kept per lane
)

// config is one run's pinned conditions.
type config struct {
	seed      int64
	side      int     // grid side; the paper's 259
	scale     float64 // multiplies every workload's op count
	seconds   float64 // timed budget per workload
	minRounds int
	// opsEachOverride, when positive, sets ops per lane per round and
	// lifts the range floor: the fast test's way to run tiny rounds.
	opsEachOverride int
	traceOut        string
}

// opsEach is the ops one lane runs per round: the spec's count times
// the scale, raised until the round holds minRangesPerRound ranges.
func (c config) opsEach(sp spec) int {
	if c.opsEachOverride > 0 {
		return c.opsEachOverride
	}
	n := max(1, int(math.Round(float64(sp.opsEach)*c.scale)))
	for sp.lanes*rangeCount(n, sp.mix) < minRangesPerRound {
		n++
	}
	return n
}

// laneResult is what one lane's pass over its list produced.
type laneResult struct {
	label     string
	lat       [numOpKinds][]float64 // host latency in ms of completed ops
	first     []float64             // submit to first chunk in ms, range queries
	attempted int
	failed    int
	failures  []string
	cells     int64            // cells the reads returned
	sim       multimap.Stats   // the session's lifetime Stats over the pass
	perOp     []multimap.Stats // every op's Stats, when captured
}

// roundResult is one pass of every lane.
type roundResult struct {
	startS  float64 // since the workload's first round
	wallS   float64
	cpuS    float64 // process user+sys CPU over the round
	mallocs uint64
	lanes   []laneResult
}

func (r roundResult) attempted() (n int) {
	for _, l := range r.lanes {
		n += l.attempted
	}
	return n
}

func (r roundResult) failed() (n int) {
	for _, l := range r.lanes {
		n += l.failed
	}
	return n
}

// pooled gathers one latency class over the round's lanes.
func (r roundResult) pooled(pick func(laneResult) []float64) []float64 {
	var out []float64
	for _, l := range r.lanes {
		out = append(out, pick(l)...)
	}
	return sortedCopy(out)
}

func rangeLatencies(l laneResult) []float64 {
	return append(append([]float64(nil), l.lat[opHot]...), l.lat[opUniform]...)
}

func allLatencies(l laneResult) []float64 {
	var out []float64
	for k := range l.lat {
		out = append(out, l.lat[k]...)
	}
	return out
}

// checkOp is the per-op correctness gate: a range must return its
// box's volume, a beam the dimension's length, a fetch at least the
// home block, a write at least one block.
func checkOp(o op, st multimap.Stats, dims []int) error {
	switch {
	case o.Kind == opBeam || o.Kind.isRange():
		if want := o.volume(dims); st.Cells != want {
			return fmt.Errorf("%v returned %d cells, want %d", o, st.Cells, want)
		}
	case o.Kind == opFetch:
		if st.Cells < 1 {
			return fmt.Errorf("%v returned no block", o)
		}
	default:
		if st.Writes < 1 {
			return fmt.Errorf("%v wrote no block", o)
		}
	}
	return nil
}

// runLane replays one lane's list in a closed loop: the next op is
// submitted when the previous one returned. With a recorder it wraps
// every op in an op span and every retired chunk in a chunk span.
func runLane(ctx context.Context, workload string, dims []int, l lane, rec *recorder, capture bool) laneResult {
	res := laneResult{label: l.label}
	if capture {
		res.perOp = make([]multimap.Stats, 0, len(l.ops))
	}
	fail := func(err error) {
		res.failed++
		if len(res.failures) < maxFailures {
			res.failures = append(res.failures, fmt.Sprintf("%s/%s: %v", workload, l.label, err))
		}
	}
	for seq, o := range l.ops {
		opCtx := ctx
		var opID string
		var root, startNs, edge int64
		if rec != nil {
			opID = workload + "/" + l.label + "/" + strconv.Itoa(seq)
			root = rec.newID()
			opCtx = context.WithValue(ctx, traceCtxKey{}, opTrace{rec: rec, op: opID, parent: root})
			startNs = rec.now()
			edge = startNs
		}
		var st multimap.Stats
		var err error
		var first time.Duration
		chunks := 0
		start := time.Now()
		switch o.Kind {
		case opBeam:
			st, err = l.tgt.Beam(opCtx, o.Dim, o.Lo)
		case opHot, opUniform:
			st, err = l.tgt.Range(opCtx, o.Lo, o.Hi, func(cs multimap.Stats) {
				if chunks == 0 {
					first = time.Since(start)
				}
				chunks++
				if rec != nil {
					now := rec.now()
					rec.add(span{ID: rec.newID(), Parent: root, Name: "chunk", Op: opID, Start: edge, End: now,
						Counts: map[string]int64{"requests": int64(cs.Requests), "cells": cs.Cells, "cache_hits": cs.CacheHits}})
					edge = now
				}
			})
		case opFetch:
			st, err = l.tgt.Fetch(opCtx, o.Lo)
		case opInsert:
			st, err = l.tgt.Insert(opCtx, o.Lo)
		case opDelete:
			st, err = l.tgt.Delete(opCtx, o.Lo)
		}
		lat := time.Since(start)
		if rec != nil {
			rec.add(span{ID: root, Name: "op", Op: opID, Start: startNs, End: rec.now(),
				Counts: map[string]int64{"kind": int64(o.Kind), "chunks": int64(chunks), "requests": int64(st.Requests), "cells": st.Cells}})
		}
		res.attempted++
		if err == nil {
			err = checkOp(o, st, dims)
		}
		if capture {
			res.perOp = append(res.perOp, st)
		}
		if err != nil {
			fail(err)
			continue
		}
		res.lat[o.Kind] = append(res.lat[o.Kind], ms(lat))
		if o.Kind.isRange() {
			res.first = append(res.first, ms(first))
		}
		if o.Kind <= opUniform {
			res.cells += st.Cells
		}
	}
	if err := l.tgt.Flush(ctx); err != nil {
		fail(fmt.Errorf("flush: %w", err))
	}
	return res
}

// runRound runs every stage once. Session totals are read outside the
// timed region: on the wire they are a request of their own.
func runRound(ctx context.Context, in *instance, rec *recorder, capture bool, epoch time.Time) (roundResult, error) {
	lanes := in.lanes()
	before := make([]multimap.Stats, len(lanes))
	for i, l := range lanes {
		st, err := l.tgt.Totals(ctx)
		if err != nil {
			return roundResult{}, fmt.Errorf("session totals: %w", err)
		}
		before[i] = st
	}
	if in.daemon != nil {
		in.daemon.rec.Store(rec)
		defer in.daemon.rec.Store(nil)
	}
	res := roundResult{lanes: make([]laneResult, len(lanes))}
	r0 := snapshotResources()
	i := 0
	for _, stage := range in.stages {
		var wg sync.WaitGroup
		for _, l := range stage {
			wg.Add(1)
			go func(slot int, l lane) {
				defer wg.Done()
				res.lanes[slot] = runLane(ctx, in.sp.name, in.dims, l, rec, capture)
			}(i, l)
			i++
		}
		wg.Wait()
	}
	r1 := snapshotResources()
	res.startS = r0.at.Sub(epoch).Seconds()
	res.wallS = r1.at.Sub(r0.at).Seconds()
	res.cpuS = (r1.cpu - r0.cpu).Seconds()
	res.mallocs = r1.mallocs - r0.mallocs
	for i, l := range lanes {
		after, err := l.tgt.Totals(ctx)
		if err != nil {
			return res, fmt.Errorf("session totals: %w", err)
		}
		res.lanes[i].sim = statsDelta(after, before[i])
	}
	return res, nil
}

// statsDelta subtracts the fields the metrics read.
func statsDelta(a, b multimap.Stats) multimap.Stats {
	return multimap.Stats{
		Cells: a.Cells - b.Cells, Padding: a.Padding - b.Padding, Requests: a.Requests - b.Requests,
		TotalMs: a.TotalMs - b.TotalMs, CommandMs: a.CommandMs - b.CommandMs, SeekMs: a.SeekMs - b.SeekMs,
		RotateMs: a.RotateMs - b.RotateMs, TransferMs: a.TransferMs - b.TransferMs,
		CacheHits: a.CacheHits - b.CacheHits, CacheMisses: a.CacheMisses - b.CacheMisses,
		Writes: a.Writes - b.Writes,
	}
}

// endToEnd folds the timed rounds into the eleven end-to-end metrics.
// Host metrics use every round, as measured; simulated metrics and the
// allocation count use the first simRounds, which every run makes.
func endToEnd(rounds []roundResult, setups, heapMiB []float64, simRounds int) []value {
	var opsPerS, rangeP50, rangeTail, beamP50, firstP50, cpuPerOp []float64
	var simPerOp, simPerCell, allocsPerOp []float64
	ranges, beams := make([][]float64, len(rounds)), make([][]float64, len(rounds))
	nRange, nBeam := math.MaxInt, math.MaxInt
	for i, r := range rounds {
		ranges[i] = r.pooled(rangeLatencies)
		beams[i] = r.pooled(func(l laneResult) []float64 { return l.lat[opBeam] })
		nRange, nBeam = min(nRange, len(ranges[i])), min(nBeam, len(beams[i]))
	}
	tail := supportedPercentile(nRange, 99)
	for i, r := range rounds {
		done := float64(r.attempted() - r.failed())
		if done == 0 {
			continue
		}
		firsts := r.pooled(func(l laneResult) []float64 { return l.first })
		opsPerS = append(opsPerS, done/r.wallS)
		rangeP50 = append(rangeP50, median(ranges[i]))
		t, _ := percentile(ranges[i], tail)
		rangeTail = append(rangeTail, t)
		beamP50 = append(beamP50, median(beams[i]))
		firstP50 = append(firstP50, median(firsts))
		cpuPerOp = append(cpuPerOp, r.cpuS*1e3/done)
		if i < simRounds {
			var simMs float64
			var cells int64
			for _, l := range r.lanes {
				simMs += l.sim.TotalMs
				cells += l.cells
			}
			simPerOp = append(simPerOp, simMs/done)
			simPerCell = append(simPerCell, simMs/float64(max(cells, 1)))
			allocsPerOp = append(allocsPerOp, float64(r.mallocs)/done)
		}
	}
	withSamples := func(v value, n int) value { v.PerRound = n; return v }
	tailValue := withSamples(summarize("range_p99_ms", "ms", rangeTail), nRange)
	if tail != 99 {
		tailValue.Note = fmt.Sprintf("p%g: fewer than %d of %d samples lie beyond p99", tail, tailGuard, nRange)
	}
	return []value{
		summarize("setup_s", "s", setups),
		summarize("ops_per_s", "ops/s", opsPerS),
		withSamples(summarize("range_p50_ms", "ms", rangeP50), nRange),
		tailValue,
		withSamples(summarize("beam_p50_ms", "ms", beamP50), nBeam),
		withSamples(summarize("first_chunk_p50_ms", "ms", firstP50), nRange),
		summarize("sim_ms_per_op", "sim_ms", simPerOp),
		summarize("sim_ms_per_cell", "sim_ms", simPerCell),
		summarize("cpu_ms_per_op", "ms", cpuPerOp),
		summarize("allocs_per_op", "count", allocsPerOp),
		summarize("live_heap_mb", "MiB", heapMiB),
	}
}

// roundInfo is the artifact's record of when and how long a round ran.
type roundInfo struct {
	Kind   string // warmup, timed, untraced or traced
	StartS float64
	WallS  float64
	Ops    int
	Failed int
}

// workloadReport is everything one workload's run produced.
type workloadReport struct {
	Name         string
	Why          string
	Clients      int
	OpsPerRound  int
	RangesPerRnd int
	Rounds       []roundInfo
	EndToEnd     []value
	PerLayer     []value
	Attempted    int
	Failed       int
	Violations   []string
	Notes        []string // what a gate did or skipped
	SpanFile     string
}

func (w *workloadReport) note(kind string, r roundResult) {
	w.Rounds = append(w.Rounds, roundInfo{Kind: kind, StartS: r.startS, WallS: r.wallS, Ops: r.attempted(), Failed: r.failed()})
	w.Attempted += r.attempted()
	w.Failed += r.failed()
	for _, l := range r.lanes {
		w.Violations = append(w.Violations, l.failures...)
	}
}

// violation records a failed invariant: it counts as one more failed
// op, so the run reports incorrect and exits non-zero.
func (w *workloadReport) violation(format string, args ...any) {
	w.Attempted++
	w.Failed++
	w.Violations = append(w.Violations, fmt.Sprintf(format, args...))
}

// openTimed opens the workload, repeating set-up for its median: the
// instance of the last repeat is the one the run uses.
func openTimed(ctx context.Context, sp spec, cfg config, repeats int) (*instance, []float64, error) {
	var samples []float64
	total := 0.0
	for {
		start := time.Now()
		in, err := sp.open(ctx, sp, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		secs := time.Since(start).Seconds()
		samples = append(samples, secs)
		total += secs
		if len(samples) >= repeats || total >= setupBudgetS {
			return in, samples, nil
		}
		if err := in.close(ctx); err != nil {
			return nil, nil, fmt.Errorf("%s: close between set-ups: %w", sp.name, err)
		}
	}
}

// runWorkload measures one workload untraced: set-up, one warm-up
// round, then timed rounds until the budget is spent, and the
// correctness gates.
func runWorkload(ctx context.Context, sp spec, cfg config) (rep *workloadReport, err error) {
	in, setups, err := openTimed(ctx, sp, cfg, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer closeInstance(ctx, in, &err)
	in.generate(cfg)
	rep = newReport(in, cfg)
	// Set-up leaves garbage behind (the curve layouts' rank-table
	// builders, hundreds of MiB); collect it now so that the first
	// timed round does not pay for it.
	runtime.GC()

	epoch := time.Now()
	warm, err := runRound(ctx, in, nil, sp.checks != nil, epoch)
	if err != nil {
		return nil, err
	}
	rep.note("warmup", warm)

	// The live heap is read after every round, between the timed
	// regions: with two clients what the cache holds when a round ends
	// differs from round to round, and the forced collection also starts
	// every round from the same collector state.
	var rounds []roundResult
	var heaps []float64
	timedStart := time.Now()
	for len(rounds) < cfg.minRounds || time.Since(timedStart).Seconds() < cfg.seconds {
		r, err := runRound(ctx, in, nil, false, epoch)
		if err != nil {
			return nil, err
		}
		rep.note("timed", r)
		rounds = append(rounds, r)
		heaps = append(heaps, liveHeapMiB())
	}
	rep.EndToEnd = endToEnd(rounds, setups, heaps, cfg.minRounds)
	checkInvariants(ctx, in, rep)
	if sp.checks != nil {
		sp.checks(ctx, in, cfg, warm, rep)
	}
	return rep, nil
}

// closeInstance closes the workload when its run ends; a close that
// fails fails the run, since it may have left the daemon listening.
func closeInstance(ctx context.Context, in *instance, err *error) {
	if cerr := in.close(ctx); cerr != nil && *err == nil {
		*err = fmt.Errorf("%s: close: %w", in.sp.name, cerr)
	}
}

func newReport(in *instance, cfg config) *workloadReport {
	return &workloadReport{
		Name: in.sp.name, Why: in.sp.why, Clients: in.sp.clients,
		OpsPerRound:  in.opsPerRound(),
		RangesPerRnd: in.sp.lanes * rangeCount(cfg.opsEach(in.sp), in.sp.mix),
	}
}

package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	multimap "repro"
)

// tracedShare is the part of the --seconds budget the traced run
// spends alternating untraced and traced rounds; the rest is left for
// the drills and the embedded twin.
const tracedShare = 0.5

// layouts are the metric-name forms of the four layouts, in the
// paper's order.
func layouts() []string {
	var out []string
	for _, k := range multimap.Mappings() {
		out = append(out, layoutName(k))
	}
	return out
}

// runTraced is the traced run of one workload: after set-up and a
// warm-up round it alternates untraced and traced rounds of the same op
// lists (their throughput ratio is the tracing overhead), drills the
// layers, and reports the per-layer metrics. The spans of the first
// traced round and of the drills are written out when the run ends.
func runTraced(ctx context.Context, sp spec, cfg config) (rep *workloadReport, err error) {
	in, _, err := openTimed(ctx, sp, cfg, 1)
	if err != nil {
		return nil, err
	}
	defer closeInstance(ctx, in, &err)
	in.generate(cfg)
	rep = newReport(in, cfg)
	runtime.GC()

	epoch := time.Now()
	warm, err := runRound(ctx, in, nil, false, epoch)
	if err != nil {
		return nil, err
	}
	rep.note("warmup", warm)
	before, err := in.counters(ctx)
	if err != nil {
		return nil, err
	}
	connsBefore := int64(0)
	if in.daemon != nil {
		connsBefore = in.daemon.conns.Load()
	}

	var plain, traced []roundResult
	var kept *recorder
	loopStart := time.Now()
	for len(traced) < 2 || time.Since(loopStart).Seconds() < cfg.seconds*tracedShare {
		r, err := runRound(ctx, in, nil, true, epoch)
		if err != nil {
			return nil, err
		}
		rep.note("untraced", r)
		plain = append(plain, r)

		rec := newRecorder()
		if r, err = runRound(ctx, in, rec, true, epoch); err != nil {
			return nil, err
		}
		rep.note("traced", r)
		traced = append(traced, r)
		if kept == nil {
			kept = rec
		}
	}
	after, err := in.counters(ctx)
	if err != nil {
		return nil, err
	}
	checkInvariants(ctx, in, rep)

	lm := layerMeasurements{
		in: in, rounds: append(append([]roundResult(nil), plain...), traced...),
		plain: plain, traced: traced, before: before, after: after,
	}
	ds := drillSetup{dims: in.dims, chunkCells: sp.chunk, shards: sp.shards, stores: in.stores, wire: in.daemon != nil}
	for _, l := range in.lanes() {
		ds.writeCells = append(ds.writeCells, l.grid.writeCells...)
	}
	if in.daemon != nil {
		// The daemon owns the wire store. An identically configured
		// embedded twin gives the no-wire latency and the cell lookups.
		lm.conns = in.daemon.conns.Load() - connsBefore
		vol, twin, _, err := openEmbedded(multimap.MultiMap, in.dims, wireTwinOptions(wireInflight)...)
		if err != nil {
			return nil, err
		}
		defer vol.Close()
		defer twin.Close()
		if lm.twinP50, err = wireTwinP50(ctx, in, twin, epoch); err != nil {
			return nil, err
		}
		ds.stores = map[string]*multimap.Store{layoutName(multimap.MultiMap): twin}
	}
	if lm.drills, err = runDrills(ctx, kept, ds, pickDrillOps(sp.name, in.lanes()[0])); err != nil {
		return nil, fmt.Errorf("%s: drills: %w", sp.name, err)
	}
	spans := kept.snapshot()
	lm.spans = spans
	rep.PerLayer = lm.values()

	if err := checkNesting(spans); err != nil {
		rep.violation("%s: spans: %v", sp.name, err)
	}
	if rep.SpanFile, err = writeSpans(cfg.traceOut, sp.name, cfg.seed, spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// wireTwinP50 runs one round of the wire workload's op lists through
// embedded sessions on the twin store and returns the median op
// latency: what the same load costs without the wire.
func wireTwinP50(ctx context.Context, in *instance, st *multimap.Store, epoch time.Time) (float64, error) {
	var lanes []lane
	for _, l := range in.lanes() {
		l.tgt = embedded{st.Begin()}
		lanes = append(lanes, l)
	}
	twin := &instance{sp: in.sp, dims: in.dims, stages: [][]lane{lanes}}
	r, err := runRound(ctx, twin, nil, false, epoch)
	if err != nil {
		return 0, err
	}
	if r.failed() > 0 {
		return 0, fmt.Errorf("embedded twin: %d ops failed: %v", r.failed(), r.lanes[0].failures)
	}
	return median(r.pooled(allLatencies)), nil
}

// layerMeasurements is what the per-layer metrics are computed from:
// the rounds after the warm-up, the service counters around them, the
// first traced round's spans, and the drill sums.
type layerMeasurements struct {
	in            *instance
	rounds        []roundResult // untraced and traced, after the warm-up
	plain, traced []roundResult
	before, after counters
	spans         []span
	drills        drillTotals
	conns         int64   // connections the daemon accepted over the rounds
	twinP50       float64 // embedded twin's median op latency, ms
}

// ratio is a/b, and 0 when the layer did nothing (b == 0): a per-layer
// metric reads 0 on a workload its layer does not run on.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (lm layerMeasurements) values() []value {
	var out []value
	add := func(name, unit string, x float64) { out = append(out, single(name, unit, x)) }
	ops, rounds := 0.0, float64(len(lm.rounds))
	for _, r := range lm.rounds {
		ops += float64(r.attempted() - r.failed())
	}

	// mapping: per layout.
	perLayout := map[string]*multimap.Stats{}
	cellsOf := map[string]int64{}
	var all multimap.Stats
	for _, r := range lm.rounds {
		for _, l := range r.lanes {
			name := lm.layoutOf(l)
			if perLayout[name] == nil {
				perLayout[name] = &multimap.Stats{}
			}
			perLayout[name].Accumulate(l.sim)
			cellsOf[name] += l.cells
			all.Accumulate(l.sim)
		}
	}
	for _, name := range layouts() {
		st := perLayout[name]
		if st == nil {
			st = &multimap.Stats{}
		}
		add("mapping.open_s."+name, "s", lm.in.openSeconds[name])
		add("mapping.cell_lookup_ns."+name, "ns", ratio(float64(lm.drills.lookupNs[name]), float64(lm.drills.lookups[name])))
		add("mapping.requests_per_kcell."+name, "count", 1000*ratio(float64(st.Requests), float64(cellsOf[name])))
		add("mapping.sim_ms_per_cell."+name, "sim_ms", ratio(st.TotalMs, float64(cellsOf[name])))
	}

	d := lm.drills
	add("query.plan_ns_per_cell", "ns", ratio(float64(d.planNs), float64(d.planCells)))
	add("query.first_chunk_plan_us", "us", ratio(float64(d.firstChunkNs), float64(d.plans))/1e3)
	add("query.chunks_per_range", "count", ratio(float64(d.rangeChunks), float64(d.rangePlans)))
	add("query.padding_share", "share", ratio(float64(d.planPadding), float64(d.planBlocks)))

	add("disk.serve_ns_per_request", "ns", ratio(float64(d.serveNs), float64(d.requests)))
	add("disk.requests_per_op", "count", ratio(float64(all.Requests), ops))
	add("disk.sim_seek_share", "share", ratio(all.SeekMs, all.TotalMs))
	add("disk.sim_rotate_share", "share", ratio(all.RotateMs, all.TotalMs))
	add("disk.sim_transfer_share", "share", ratio(all.TransferMs, all.TotalMs))
	for _, k := range []multimap.Mapping{multimap.Naive, multimap.MultiMap} {
		add("disk.analytic_error_share."+layoutName(k), "share", lm.analyticError(k))
	}

	dt := lm.after.Totals
	bt := lm.before.Totals
	batches := float64(dt.Batches - bt.Batches)
	writes := float64(dt.WriteOps - bt.WriteOps)
	hits := float64(dt.Attributed.CacheHits - bt.Attributed.CacheHits)
	misses := float64(dt.Attributed.CacheMisses - bt.Attributed.CacheMisses)
	add("engine.runplan_self_ns_per_request", "ns", ratio(float64(lm.selfTime("engine.runplan")), float64(d.requests)))
	add("engine.batches_per_op", "count", ratio(batches, ops))
	add("engine.merged_batch_share", "share", ratio(float64(dt.MergedBatches-bt.MergedBatches), batches))
	add("engine.max_batch_chunks", "count", float64(dt.MaxBatchChunks))
	add("engine.issued_request_share", "share", ratio(float64(dt.IssuedRequests-bt.IssuedRequests), float64(dt.Attributed.Requests-bt.Attributed.Requests)))
	add("engine.cache_hit_rate", "share", ratio(hits, hits+misses))
	add("engine.invalidated_blocks_per_write", "count", ratio(float64(dt.InvalidatedBlocks-bt.InvalidatedBlocks), writes))
	add("engine.flush_batches", "count", ratio(float64(dt.FlushBatches-bt.FlushBatches), rounds))
	add("engine.coalesced_write_share", "share", ratio(float64(dt.CoalescedWrites-bt.CoalescedWrites), writes))
	add("engine.deferred_ops", "count", ratio(float64(lm.after.deferred()-lm.before.deferred()), rounds))

	add("shard.split_ns_per_box", "ns", ratio(float64(d.splitNs), float64(d.splits)))
	add("shard.parts_per_box", "count", ratio(float64(d.parts), float64(d.splits)))
	add("shard.sim_imbalance", "share", lm.shardImbalance())

	var lines, bytes, ranges float64
	for _, s := range lm.spans {
		if s.Name == "client.request" && s.Counts["range"] == 1 {
			lines += float64(s.Counts["lines"])
			bytes += float64(s.Counts["bytes"])
			ranges++
		}
	}
	wireP50 := 0.0
	if lm.in.daemon != nil {
		var p50s []float64
		for _, r := range lm.plain {
			p50s = append(p50s, median(r.pooled(allLatencies)))
		}
		wireP50 = median(sortedCopy(p50s)) - lm.twinP50
	}
	add("server.overhead_ms_per_op", "ms", wireP50)
	add("server.handler_p50_ms", "ms", median(sortedCopy(spanDurations(lm.spans, "server.handler"))))
	add("server.first_flush_p50_ms", "ms", median(sortedCopy(spanDurations(lm.spans, "server.first_flush"))))
	add("server.encode_ns_per_line", "ns", ratio(float64(d.encodeNs), float64(d.lines)))
	add("server.client_decode_ns_per_line", "ns", ratio(float64(d.decodeNs), float64(d.lines)))
	add("server.lines_per_range", "count", ratio(lines, ranges))
	add("server.bytes_per_range", "count", ratio(bytes, ranges))
	add("server.conns_per_op", "count", ratio(float64(lm.conns), ops))

	for _, k := range []opKind{opInsert, opDelete, opFetch} {
		var p50s []float64
		for _, r := range lm.rounds {
			if lat := r.pooled(func(l laneResult) []float64 { return l.lat[k] }); len(lat) > 0 {
				p50s = append(p50s, median(lat))
			}
		}
		add("store."+k.String()+"_p50_ms", "ms", median(sortedCopy(p50s)))
	}
	add("core.insert_ns", "ns", ratio(float64(d.coreInsertNs), float64(d.coreInserts)))
	add("core.reorganizations", "count", float64(lm.after.Reorgs-lm.before.Reorgs))

	add("trace.overhead_share", "share", 1-ratio(medianOpsPerS(lm.traced), medianOpsPerS(lm.plain)))
	return out
}

// layoutOf is the layout a lane ran on: its label on fig6_layouts,
// where lanes are layouts, and MultiMap on the client-per-lane
// workloads.
func (lm layerMeasurements) layoutOf(l laneResult) string {
	if _, isLayout := lm.in.openSeconds[l.label]; isLayout {
		return l.label
	}
	return layoutName(multimap.MultiMap)
}

func medianOpsPerS(rounds []roundResult) float64 {
	var xs []float64
	for _, r := range rounds {
		xs = append(xs, float64(r.attempted()-r.failed())/r.wallS)
	}
	return median(sortedCopy(xs))
}

// selfTime sums the self time of every span of a name.
func (lm layerMeasurements) selfTime(name string) int64 {
	self := selfTimes(lm.spans)
	var sum int64
	for _, s := range lm.spans {
		if s.Name == name {
			sum += self[s.ID]
		}
	}
	return sum
}

// shardImbalance is the busiest shard's share of simulated time over
// the mean shard's: 1 is perfectly balanced, 0 means a single shard.
func (lm layerMeasurements) shardImbalance() float64 {
	if lm.in.sp.shards < 2 || len(lm.before.PerShard) != len(lm.after.PerShard) {
		return 0
	}
	var sum, top float64
	for i, a := range lm.after.PerShard {
		ms := a.Attributed.TotalMs - lm.before.PerShard[i].Attributed.TotalMs
		sum += ms
		top = math.Max(top, ms)
	}
	return ratio(top, sum/float64(len(lm.after.PerShard)))
}

// analyticError compares simulated beams with the closed-form model of
// PAPER.md §5: per dimension, the mean simulated time of a beam against
// Model.EstimateBeamMs, as a share of the estimate, averaged over the
// dimensions. It is reported only where every beam reaches the disks —
// with the extent cache on a beam through the hot region costs nothing,
// and the comparison would measure the cache instead of the model.
func (lm layerMeasurements) analyticError(kind multimap.Mapping) float64 {
	if lm.in.sp.cached {
		return 0
	}
	model, err := multimap.NewModel(diskModel, lm.in.dims)
	if err != nil {
		return 0
	}
	nd := len(lm.in.dims)
	sum, n := make([]float64, nd), make([]float64, nd)
	lanes := lm.in.lanes()
	for _, r := range lm.rounds {
		for i, l := range r.lanes {
			if lm.layoutOf(l) != layoutName(kind) {
				continue
			}
			for seq, st := range l.perOp {
				if o := lanes[i].ops[seq]; o.Kind == opBeam {
					sum[o.Dim] += st.TotalMs
					n[o.Dim]++
				}
			}
		}
	}
	var errSum, dimsSeen float64
	for dim := 0; dim < nd; dim++ {
		est, err := model.EstimateBeamMs(kind, dim)
		if err != nil || est == 0 || n[dim] == 0 {
			continue
		}
		errSum += math.Abs(sum[dim]/n[dim]-est) / est
		dimsSeen++
	}
	return ratio(errSum, dimsSeen)
}

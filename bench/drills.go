package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	multimap "repro"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/shard"
)

// Layer drills replay an op's box through each layer in isolation, by
// calling the layer's public functions from here: the program has no
// spans of its own yet, so this is where per-layer host time comes
// from. Every drill works on twin volumes and mappings of its own and
// never touches the stores the rounds ran on.
const (
	drillOps       = 240  // read ops drilled per traced run
	lookupsPerBox  = 1024 // cell lookups timed per box at most
	splitRepeats   = 8    // SplitBox calls per span: one is below timer resolution
	coreInsertLoop = 4096 // CellStore inserts timed for core.insert_ns
)

// drillSetup says which drills a workload's layers call for.
type drillSetup struct {
	dims       []int
	chunkCells int64
	shards     int                        // > 1 drills the router
	wire       bool                       // drills NDJSON encode and decode
	writeCells [][]int                    // non-empty drills the cell store
	stores     map[string]*multimap.Store // per layout, for the cell-lookup drill
}

// drillTotals are the sums the per-layer metrics divide.
type drillTotals struct {
	lookupNs, lookups map[string]int64 // per layout

	planNs, planCells, firstChunkNs int64
	plans, rangePlans, rangeChunks  int64
	planBlocks, planPadding         int64

	serveNs, runNs, requests int64

	splitNs, splits, parts int64

	encodeNs, decodeNs, lines int64

	coreInsertNs, coreInserts int64
}

// drilledOp is one read op picked for the drills, with its identity.
type drilledOp struct {
	id string
	op op
}

// pickDrillOps takes the first drillOps beams and ranges of a lane.
func pickDrillOps(workload string, l lane) []drilledOp {
	var out []drilledOp
	for seq, o := range l.ops {
		if o.Kind > opUniform {
			continue
		}
		out = append(out, drilledOp{id: fmt.Sprintf("%s/%s/%d", workload, l.label, seq), op: o})
		if len(out) == drillOps {
			break
		}
	}
	return out
}

// runDrills drills every picked op and records one drill root span per
// op with a child span per layer.
func runDrills(ctx context.Context, rec *recorder, ds drillSetup, ops []drilledOp) (drillTotals, error) {
	tot := drillTotals{lookupNs: map[string]int64{}, lookups: map[string]int64{}}
	geom, err := disk.ModelByName(string(diskModel))
	if err != nil {
		return tot, err
	}
	twin := func() (*lvm.Volume, error) { return lvm.New(0, geom) }
	planVol, err := twin()
	if err != nil {
		return tot, err
	}
	m, err := mapping.New(mapping.MultiMap, planVol, ds.dims, mapping.Options{DiskIdx: 0})
	if err != nil {
		return tot, err
	}
	eo, err := query.ExecOptionsFor("", ds.chunkCells)
	if err != nil {
		return tot, err
	}
	exec := query.NewExecutorOptions(planVol, m, eo)
	diskVol, err := twin()
	if err != nil {
		return tot, err
	}
	engineVol, err := twin()
	if err != nil {
		return tot, err
	}
	svc := engine.NewService(engineVol, engine.ServiceOptions{})
	defer svc.Close()
	sess := svc.NewSession(engine.SessionOptions{})

	var router *shard.Router
	if ds.shards > 1 {
		align, err := mapping.Dim0Align(mapping.MultiMap, planVol, ds.dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			return tot, err
		}
		// shard.Build relaxes the alignment like this when Dim0 has fewer
		// cube rows than shards (the small grids of the tests).
		for align > 1 && (ds.dims[0]+align-1)/align < ds.shards {
			align = (align + 1) / 2
		}
		if router, err = shard.NewRouter(ds.dims, ds.shards, align); err != nil {
			return tot, err
		}
	}

	for _, d := range ops {
		lo, hi := d.op.Lo, d.op.Hi
		if d.op.Kind == opBeam {
			if lo, hi, err = query.BeamBox(ds.dims, d.op.Dim, d.op.Lo); err != nil {
				return tot, err
			}
		}
		root := rec.newID()
		rootStart := rec.now()
		child := func(name string, start int64, counts map[string]int64) {
			rec.add(span{ID: rec.newID(), Parent: root, Name: name, Op: d.id, Start: start, End: rec.now(), Counts: counts})
		}

		// mapping: cell -> block lookups over the box, per open layout.
		for _, k := range multimap.Mappings() {
			name := layoutName(k)
			st, ok := ds.stores[name]
			if !ok {
				continue
			}
			start := rec.now()
			n, err := lookupBox(st, lo, hi)
			if err != nil {
				return tot, fmt.Errorf("%s: lookup on %s: %w", d.id, name, err)
			}
			tot.lookupNs[name] += rec.now() - start
			tot.lookups[name] += n
			child("mapping.box", start, map[string]int64{"lookups": n})
		}

		// query: plan the box and drain the plan's chunks.
		start := rec.now()
		plan, err := exec.Plan(lo, hi)
		if err != nil {
			return tot, fmt.Errorf("%s: plan: %w", d.id, err)
		}
		var chunks []engine.Chunk
		var firstChunk int64
		for {
			c, ok, err := plan.Next()
			if err != nil {
				return tot, fmt.Errorf("%s: plan: %w", d.id, err)
			}
			if !ok {
				break
			}
			if len(chunks) == 0 {
				firstChunk = rec.now() - start
			}
			chunks = append(chunks, c)
		}
		tot.planNs += rec.now() - start
		tot.firstChunkNs += firstChunk
		tot.plans++
		if d.op.Kind.isRange() {
			tot.rangePlans++
			tot.rangeChunks += int64(len(chunks))
		}
		tot.planCells += d.op.volume(ds.dims)
		var reqs, blocks, padding int64
		for _, c := range chunks {
			reqs += int64(len(c.Reqs))
			padding += c.Padding
			for _, r := range c.Reqs {
				blocks += int64(r.Count)
			}
		}
		tot.planBlocks += blocks
		tot.planPadding += padding
		child("query.plan", start, map[string]int64{"chunks": int64(len(chunks)), "requests": reqs, "padding": padding})

		// engine: the captured chunks through a service session, then the
		// same chunks straight through ServeBatch on another twin. The
		// second is what the first spends inside the disk simulation.
		served := make([]engine.Stats, len(chunks))
		runStart := rec.now()
		for i, c := range chunks {
			if served[i], err = sess.RunPlan(ctx, engine.Static(c.Reqs, c.Policy), engine.Options{}); err != nil {
				return tot, fmt.Errorf("%s: runplan: %w", d.id, err)
			}
		}
		runEnd := rec.now()
		serveStart := time.Now()
		for _, c := range chunks {
			if _, _, err := diskVol.ServeBatch(c.Reqs, c.Policy); err != nil {
				return tot, fmt.Errorf("%s: serve: %w", d.id, err)
			}
		}
		serveNs := int64(time.Since(serveStart))
		tot.runNs += runEnd - runStart
		tot.serveNs += serveNs
		tot.requests += reqs
		runID := rec.newID()
		rec.add(span{ID: runID, Parent: root, Name: "engine.runplan", Op: d.id, Start: runStart, End: runEnd,
			Counts: map[string]int64{"chunks": int64(len(chunks)), "requests": reqs}})
		rec.add(span{ID: rec.newID(), Parent: runID, Name: "disk.serve", Op: d.id, Projected: true,
			Start: runStart, End: min(runStart+serveNs, runEnd), Counts: map[string]int64{"requests": reqs}})

		// shard: split the box by owning shard.
		if router != nil {
			start := rec.now()
			var parts []shard.Part
			for i := 0; i < splitRepeats; i++ {
				parts = router.SplitBox(lo, hi)
			}
			tot.splitNs += (rec.now() - start) / splitRepeats
			tot.splits++
			tot.parts += int64(len(parts))
			child("shard.split", start, map[string]int64{"parts": int64(len(parts)), "repeats": splitRepeats})
		}

		// server: one NDJSON line per chunk, encoded as the handler does
		// and decoded as the client does.
		if ds.wire && d.op.Kind.isRange() {
			lines := make([][]byte, len(chunks))
			start := rec.now()
			for i, st := range served {
				line := server.StreamLine{Chunk: &server.ChunkWire{Seq: i, Stats: server.StatsWire{
					Cells: st.Cells, Requests: st.Requests, TotalMs: st.TotalMs, ElapsedMs: st.ElapsedMs,
					CommandMs: st.CommandMs, SeekMs: st.SeekMs, RotateMs: st.RotateMs, TransferMs: st.TransferMs,
					CacheMisses: int64(st.Requests)}}}
				if lines[i], err = json.Marshal(line); err != nil {
					return tot, err
				}
			}
			tot.encodeNs += rec.now() - start
			child("server.encode", start, map[string]int64{"lines": int64(len(lines))})
			start = rec.now()
			for _, raw := range lines {
				var line server.StreamLine
				if err := json.Unmarshal(raw, &line); err != nil {
					return tot, err
				}
			}
			tot.decodeNs += rec.now() - start
			tot.lines += int64(len(lines))
		}

		rec.add(span{ID: root, Name: "drill", Op: d.id, Start: rootStart, End: rec.now()})
	}

	if len(ds.writeCells) > 0 {
		// core: CellStore.Insert alone, into cells loaded like the
		// workload's, few enough per cell that none overflows.
		cs, err := core.NewCellStore(m.CellVLBN, 64, 0.75, 0.25, nil)
		if err != nil {
			return tot, err
		}
		for _, cell := range ds.writeCells {
			if _, err := cs.LoadCell(cell, loadedPoints); err != nil {
				return tot, err
			}
		}
		n := min(coreInsertLoop, (64-loadedPoints)*len(ds.writeCells))
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := cs.Insert(ds.writeCells[i%len(ds.writeCells)]); err != nil {
				return tot, err
			}
		}
		tot.coreInsertNs, tot.coreInserts = int64(time.Since(start)), int64(n)
	}
	return tot, nil
}

// lookupBox looks up the blocks of at most lookupsPerBox cells of the
// box, striding through it so that every side is covered.
func lookupBox(st *multimap.Store, lo, hi []int) (int64, error) {
	cells := int64(1)
	for i := range lo {
		cells *= int64(hi[i] - lo[i])
	}
	stride := max(1, cells/lookupsPerBox)
	cell := make([]int, len(lo))
	var n int64
	for idx := int64(0); idx < cells; idx += stride {
		rest := idx
		for i := range lo {
			side := int64(hi[i] - lo[i])
			cell[i] = lo[i] + int(rest%side)
			rest /= side
		}
		if _, err := st.CellLBN(cell); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

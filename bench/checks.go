package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"

	multimap "repro"
	"repro/internal/disk"
	"repro/internal/engine"
	"repro/internal/lvm"
	"repro/internal/mapping"
	"repro/internal/query"
)

// checkInvariants is the attribution gate: after a final flush, what
// the sessions were handed back must add up to what the shard services
// attributed, and so must the per-class totals.
func checkInvariants(ctx context.Context, in *instance, rep *workloadReport) {
	var sessions multimap.Stats
	for _, t := range append(laneTargets(in), in.helpers...) {
		if err := t.Flush(ctx); err != nil {
			rep.violation("%s: final flush: %v", in.sp.name, err)
			return
		}
		st, err := t.Totals(ctx)
		if err != nil {
			rep.violation("%s: session totals: %v", in.sp.name, err)
			return
		}
		sessions.Accumulate(st)
	}
	c, err := in.counters(ctx)
	if err != nil {
		rep.violation("%s: service counters: %v", in.sp.name, err)
		return
	}
	if err := sameWork(sessions, c.Totals.Attributed, shareTolerance); err != nil {
		rep.violation("%s: session Stats do not sum to ServiceTotals.Attributed: %v", in.sp.name, err)
	}
	var classes multimap.Stats
	for _, ct := range c.Classes {
		classes.Accumulate(ct.Attributed)
	}
	if err := sameWork(classes, c.Totals.Attributed, shareTolerance); err != nil {
		rep.violation("%s: ClassTotals do not sum to ServiceTotals.Attributed: %v", in.sp.name, err)
	}
}

func laneTargets(in *instance) []target {
	var out []target
	for _, l := range in.lanes() {
		out = append(out, l.tgt)
	}
	return out
}

// checkLayouts is fig6_layouts' own gate: the paper-faithful path and
// the golden values.
func checkLayouts(ctx context.Context, in *instance, cfg config, warm roundResult, rep *workloadReport) {
	checkPaperPath(ctx, in, warm, rep)
	checkGolden(in, cfg, warm, rep)
}

// simKey is the simulated outcome of one op: what two execution paths
// must agree on bit for bit.
type simKey struct {
	TotalMs  float64 `json:"total_ms"`
	Cells    int64   `json:"cells"`
	Requests int     `json:"requests"`
}

func keyOf(st multimap.Stats) simKey {
	return simKey{TotalMs: st.TotalMs, Cells: st.Cells, Requests: st.Requests}
}

// checkPaperPath replays the warm-up pass — the first pass over
// pristine volumes — through query.Executor on engine.OnVolume, the
// synchronous paper-faithful path, on a twin volume per layout, and
// requires every op's simulated outcome to equal the Store session's
// with ==: the fig6probe plain/serve equivalence on the benchmark's own
// op list.
func checkPaperPath(ctx context.Context, in *instance, warm roundResult, rep *workloadReport) {
	geom, err := disk.ModelByName(string(diskModel))
	if err != nil {
		rep.violation("fig6_layouts: %v", err)
		return
	}
	for i, l := range in.lanes() {
		kind, err := multimap.ParseMapping(l.label)
		if err != nil {
			rep.violation("fig6_layouts: %v", err)
			continue
		}
		vol, err := lvm.New(0, geom)
		if err != nil {
			rep.violation("fig6_layouts: twin volume: %v", err)
			return
		}
		m, err := mapping.New(kind, vol, in.dims, mapping.Options{DiskIdx: 0})
		if err != nil {
			rep.violation("fig6_layouts: twin mapping %s: %v", l.label, err)
			continue
		}
		exec, runner := query.NewExecutor(vol, m), engine.OnVolume(vol)
		served := warm.lanes[i].perOp
		for seq, o := range l.ops {
			var st multimap.Stats
			if o.Kind == opBeam {
				st, err = exec.BeamOn(ctx, runner, o.Dim, o.Lo)
			} else {
				st, err = exec.RangeOn(ctx, runner, o.Lo, o.Hi)
			}
			if err != nil {
				rep.violation("fig6_layouts/%s/%d: paper path: %v", l.label, seq, err)
				break
			}
			if seq >= len(served) || keyOf(st) != keyOf(served[seq]) {
				rep.violation("fig6_layouts/%s/%d: %v: paper path %+v != session path %+v",
					l.label, seq, o, keyOf(st), keyOf(served[min(seq, len(served)-1)]))
				break
			}
		}
	}
}

// goldenFile pins fig6_layouts' simulated totals for one seed and one
// op count: per layout, the warm-up pass's summed outcome.
type goldenFile struct {
	Seed    int64             `json:"seed"`
	Side    int               `json:"side"`
	OpsEach int               `json:"ops_per_layout"`
	Layouts map[string]simKey `json:"layouts"`
}

//go:embed golden.json
var embeddedGolden []byte

// checkGolden compares the warm-up pass's per-layout totals with the
// golden file using ==, and says in the report whether it did. Other
// seeds, sides or op counts have no golden values and skip the
// comparison, keeping every other gate. A mismatch prints the observed
// totals in the file's format: after an intended change of simulated
// results they are the new golden.json.
func checkGolden(in *instance, cfg config, warm roundResult, rep *workloadReport) {
	got := goldenFile{Seed: cfg.seed, Side: cfg.side, OpsEach: cfg.opsEach(in.sp), Layouts: map[string]simKey{}}
	for _, l := range warm.lanes {
		var sum simKey
		for _, st := range l.perOp {
			sum.TotalMs += st.TotalMs
			sum.Cells += st.Cells
			sum.Requests += st.Requests
		}
		got.Layouts[l.label] = sum
	}
	var want goldenFile
	if err := json.Unmarshal(embeddedGolden, &want); err != nil {
		rep.violation("fig6_layouts: parse golden.json: %v", err)
		return
	}
	if want.Seed != got.Seed || want.Side != got.Side || want.OpsEach != got.OpsEach {
		rep.Notes = append(rep.Notes, fmt.Sprintf("golden: skipped (run has seed %d, side %d, %d ops per layout; golden.json has %d, %d, %d)",
			got.Seed, got.Side, got.OpsEach, want.Seed, want.Side, want.OpsEach))
		return
	}
	equal := len(want.Layouts) == len(got.Layouts)
	for name, w := range want.Layouts {
		if g := got.Layouts[name]; g != w {
			equal = false
			rep.violation("fig6_layouts: golden %s: got %+v, want %+v", name, g, w)
		}
	}
	if equal {
		rep.Notes = append(rep.Notes, fmt.Sprintf("golden: compared, %d layouts equal", len(want.Layouts)))
		return
	}
	observed, err := json.MarshalIndent(got, "  ", "  ")
	if err != nil {
		rep.violation("fig6_layouts: encode observed totals: %v", err)
		return
	}
	rep.Notes = append(rep.Notes, "golden: MISMATCH; this run observed\n  "+string(observed))
}

// wireReplayOps is how many of client 0's ops the wire replay covers.
const wireReplayOps = 200

// checkWireReplay opens a second, pristine store on the daemon and an
// identically configured embedded twin, replays the head of client 0's
// list through one wire session and one embedded session, and requires
// every op's simulated outcome to be equal: the wire adds host time,
// never simulated time. Both stores keep one chunk in flight: with two,
// whether a query's chunks share an admission batch depends on host
// timing, and the simulated cost with it, on either path.
func checkWireReplay(ctx context.Context, in *instance, _ config, _ roundResult, rep *workloadReport) {
	head := in.lanes()[0].ops
	head = head[:min(len(head), wireReplayOps)]

	const replayStore = "replay"
	c, tr := newWireClient(in.daemon.addr())
	defer tr.CloseIdleConnections()
	if _, err := c.OpenStore(ctx, wireStoreRequest(replayStore, in.dims, 1)); err != nil {
		rep.violation("wire_stream: open replay store: %v", err)
		return
	}
	defer c.CloseStore(ctx, replayStore)
	sess, err := c.Begin(ctx, replayStore, "")
	if err != nil {
		rep.violation("wire_stream: begin replay session: %v", err)
		return
	}
	wire := runLane(ctx, "wire_stream", in.dims, lane{label: "replay", tgt: wireTarget{c: c, store: replayStore, session: sess}, ops: head}, nil, true)

	vol, st, _, err := openEmbedded(multimap.MultiMap, in.dims, wireTwinOptions(1)...)
	if err != nil {
		rep.violation("wire_stream: open embedded twin: %v", err)
		return
	}
	defer vol.Close()
	defer st.Close()
	twin := runLane(ctx, "wire_stream", in.dims, lane{label: "twin", tgt: embedded{st.Begin()}, ops: head}, nil, true)

	if wire.failed+twin.failed > 0 {
		rep.violation("wire_stream: replay had failures: %v %v", wire.failures, twin.failures)
		return
	}
	for seq := range head {
		if w, e := keyOf(wire.perOp[seq]), keyOf(twin.perOp[seq]); w != e {
			rep.violation("wire_stream/replay/%d: %v: wire %+v != embedded twin %+v", seq, head[seq], w, e)
			return
		}
	}
}

package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	multimap "repro"
	"repro/internal/server"
)

const diskModel = multimap.AtlasTenKIII

// Knobs the workloads pin. They are constants of the benchmark: a
// later change that wants other values adds a workload instead.
const (
	cacheBlocks      = 1 << 20 // holds the 32³ hot region, not the uniform boxes over 259³
	servedChunkCells = 2048
	wireChunkCells   = 512
	wireInflight     = 2
	fairQuantum      = 4096
	loadedPoints     = 48 // points per write cell after set-up: fill factor 0.75 of 64
	writeCellsPerSet = 64 // write cells per client per shard
)

// spec describes one workload: who runs what against which store.
type spec struct {
	name    string
	why     string
	clients int   // client goroutines (and sessions or connections) per stage
	lanes   int   // op lists one round replays: the layouts on fig6_layouts, else the clients
	shards  int   // shard volumes the store spans
	chunk   int64 // planner chunk bound in cells, 0 = unchunked
	cached  bool  // the extent cache is on, so not every request reaches the disks
	opsEach int   // ops per lane per round at scale 1
	mix     mix
	open    func(ctx context.Context, sp spec, cfg config) (*instance, error)
	// checks are the workload's own correctness gates, run after the
	// timed rounds with the warm-up round's captured per-op Stats.
	checks func(ctx context.Context, in *instance, cfg config, warm roundResult, rep *workloadReport)
}

var specs = []spec{
	{
		name: "fig6_layouts", clients: 1, lanes: 4, shards: 1, opsEach: 1500, mix: layoutMix, open: openLayouts, checks: checkLayouts,
		why: "paper Fig.6: one op list, 1500 ops per layout per round, replayed by 1 client on Naive, Z-order, Hilbert and MultiMap stores with all serving machinery off",
	},
	{
		name: "serve_cached", clients: 2, lanes: 2, shards: 1, chunk: servedChunkCells, cached: true, opsEach: 900, mix: readMix, open: openServed,
		why: "2 sessions x 900 ops per round, chunk 2048, 2 in flight, 1Mi-block extent cache (hot region fits, uniform boxes do not): admission, coalescing and cache dominate host cost",
	},
	{
		name: "wire_stream", clients: 2, lanes: 2, shards: 1, chunk: wireChunkCells, opsEach: 2500, mix: readMix, open: openWire, checks: checkWireReplay,
		why: "2 HTTP connections x 2500 ops per round to the loopback daemon, chunk 512, cache off: JSON, an NDJSON flush per chunk and HTTP dominate",
	},
	{
		name: "shard_write", clients: 2, lanes: 2, shards: 2, chunk: servedChunkCells, opsEach: 1500, mix: writeMix, open: openShardWrite,
		why: "2 clients x 1500 ops per round, 2 shards, write-back, QoS classes 1:4, 30% writes; extent cache off (the issue's 1<<20 made a round take minutes in the class-partitioned eviction walk)",
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// lane is one client's closed loop: a target and the op list it
// replays every round. On fig6_layouts the label is the layout and
// every lane replays client 0's list; elsewhere the label is the
// client.
type lane struct {
	label  string
	client int  // which generated list the lane replays
	grid   grid // what the generator draws that list from
	tgt    target
	ops    []op
}

// instance is one opened workload. Lanes of a stage run concurrently,
// stages run in sequence.
type instance struct {
	sp     spec
	dims   []int
	stages [][]lane
	// stores are the embedded stores the lanes run on, keyed by layout
	// name; empty on the wire, where the daemon owns the store.
	stores map[string]*multimap.Store
	// openSeconds is each layout's store open time.
	openSeconds map[string]float64
	// helpers are sessions set-up used besides the lanes'; they count
	// in the attribution sum.
	helpers []target
	// counters snapshots the service bookkeeping summed over the
	// instance's stores.
	counters func(ctx context.Context) (counters, error)
	// daemon is the wire front-end, nil on embedded workloads.
	daemon *daemon
	close  func(ctx context.Context) error
}

func (in *instance) lanes() []lane {
	var out []lane
	for _, st := range in.stages {
		out = append(out, st...)
	}
	return out
}

// generate gives every lane its op list. It runs after set-up is
// timed: making the load is the generator's cost, not the system's.
func (in *instance) generate(cfg config) {
	lists := map[int][]op{}
	for _, st := range in.stages {
		for i := range st {
			l := &st[i]
			if _, ok := lists[l.client]; !ok {
				lists[l.client] = genOps(cfg.seed, l.client, cfg.opsEach(in.sp), in.sp.mix, l.grid)
			}
			l.ops = lists[l.client]
		}
	}
}

// opsPerRound is the number of ops one round attempts.
func (in *instance) opsPerRound() int {
	n := 0
	for _, l := range in.lanes() {
		n += len(l.ops)
	}
	return n
}

// counters is the slice of the service bookkeeping the per-layer
// metrics and the attribution checks read.
type counters struct {
	Totals   multimap.ServiceTotals   // summed over shards and stores
	PerShard []multimap.ServiceTotals // in store, then shard order
	Classes  []multimap.ClassTotals
	Reorgs   int
}

func (c counters) deferred() int64 {
	var n int64
	for _, ct := range c.Classes {
		n += ct.Deferred
	}
	return n
}

// storeCounters reads the bookkeeping of embedded stores.
func storeCounters(stores ...*multimap.Store) counters {
	var c counters
	for _, st := range stores {
		m := st.Metrics()
		addTotals(&c.Totals, m.Totals)
		for _, sh := range m.Shards {
			c.PerShard = append(c.PerShard, sh.Totals)
		}
		c.Classes = append(c.Classes, m.Classes...)
		c.Reorgs += st.Reorganizations()
	}
	return c
}

// addTotals folds one service's totals into a sum: counters add, the
// batch high-water mark takes the maximum.
func addTotals(sum *multimap.ServiceTotals, t multimap.ServiceTotals) {
	sum.Batches += t.Batches
	sum.MergedBatches += t.MergedBatches
	sum.MaxBatchChunks = max(sum.MaxBatchChunks, t.MaxBatchChunks)
	sum.IssuedRequests += t.IssuedRequests
	sum.WriteOps += t.WriteOps
	sum.InvalidatedBlocks += t.InvalidatedBlocks
	sum.FlushBatches += t.FlushBatches
	sum.CoalescedWrites += t.CoalescedWrites
	sum.Attributed.Accumulate(t.Attributed)
}

// layoutName is the metric-name form of a mapping: lower case, no
// punctuation ("Z-order" -> "zorder").
func layoutName(k multimap.Mapping) string {
	return strings.ToLower(strings.ReplaceAll(k.String(), "-", ""))
}

func cubeDims(side int) []int { return []int{side, side, side} }

// openEmbedded opens a fresh volume and a store on it, timing the
// store open.
func openEmbedded(kind multimap.Mapping, dims []int, opts ...multimap.Option) (*multimap.Volume, *multimap.Store, float64, error) {
	start := time.Now()
	vol, err := multimap.OpenVolume(diskModel)
	if err != nil {
		return nil, nil, 0, err
	}
	st, err := multimap.Open(vol, kind, dims, opts...)
	if err != nil {
		vol.Close()
		return nil, nil, 0, err
	}
	return vol, st, time.Since(start).Seconds(), nil
}

// embeddedInstance assembles an instance over embedded stores; closing
// it closes sessions, stores and volumes in that order.
func embeddedInstance(sp spec, dims []int, stages [][]lane, stores map[string]*multimap.Store,
	vols []*multimap.Volume, opens map[string]float64, helpers []target) *instance {
	in := &instance{sp: sp, dims: dims, stages: stages, stores: stores, openSeconds: opens, helpers: helpers}
	all := make([]*multimap.Store, 0, len(stores))
	for _, k := range multimap.Mappings() {
		if st, ok := stores[layoutName(k)]; ok {
			all = append(all, st)
		}
	}
	in.counters = func(context.Context) (counters, error) { return storeCounters(all...), nil }
	in.close = func(ctx context.Context) error {
		var first error
		for _, l := range in.lanes() {
			if err := l.tgt.Close(ctx); err != nil && first == nil {
				first = err
			}
		}
		for _, h := range helpers {
			if err := h.Close(ctx); err != nil && first == nil {
				first = err
			}
		}
		for _, st := range all {
			st.Close()
		}
		for _, v := range vols {
			v.Close()
		}
		return first
	}
	return in
}

// openLayouts opens the paper's experiment: four stores, one per
// layout, cache off, one shard, unchunked planner, and one session on
// each. Every round replays the same list on each store in turn.
func openLayouts(_ context.Context, sp spec, cfg config) (*instance, error) {
	dims := cubeDims(cfg.side)
	stores := map[string]*multimap.Store{}
	opens := map[string]float64{}
	var vols []*multimap.Volume
	var stages [][]lane
	for _, k := range multimap.Mappings() {
		vol, st, secs, err := openEmbedded(k, dims)
		if err != nil {
			return nil, fmt.Errorf("open %v: %w", k, err)
		}
		name := layoutName(k)
		stores[name], opens[name] = st, secs
		vols = append(vols, vol)
		stages = append(stages, []lane{{label: name, grid: grid{dims: dims}, tgt: embedded{st.Begin()}}})
	}
	return embeddedInstance(sp, dims, stages, stores, vols, opens, nil), nil
}

// clientLanes pairs each client's target with the grid its list is
// drawn from.
func clientLanes(grids []grid, tgts []target) []lane {
	lanes := make([]lane, len(tgts))
	for i, t := range tgts {
		lanes[i] = lane{label: fmt.Sprintf("c%d", i), client: i, grid: grids[i], tgt: t}
	}
	return lanes
}

func sameGrid(g grid, n int) []grid {
	out := make([]grid, n)
	for i := range out {
		out[i] = g
	}
	return out
}

// openServed opens the cached serving path: one MultiMap store with
// chunked plans, two chunks in flight per session, and the extent
// cache on.
func openServed(_ context.Context, sp spec, cfg config) (*instance, error) {
	dims := cubeDims(cfg.side)
	vol, st, secs, err := openEmbedded(multimap.MultiMap, dims,
		multimap.WithChunkCells(sp.chunk), multimap.WithMaxInflight(2), multimap.WithCache(cacheBlocks))
	if err != nil {
		return nil, err
	}
	tgts := make([]target, sp.clients)
	for i := range tgts {
		tgts[i] = embedded{st.Begin()}
	}
	name := layoutName(multimap.MultiMap)
	return embeddedInstance(sp, dims, [][]lane{clientLanes(sameGrid(grid{dims: dims}, sp.clients), tgts)},
		map[string]*multimap.Store{name: st}, []*multimap.Volume{vol}, map[string]float64{name: secs}, nil), nil
}

// wireStoreName is the store the wire workload opens on the daemon.
const wireStoreName = "bench"

// wireStoreRequest is the wire store's configuration; the embedded
// twin is opened with wireTwinOptions, the same knobs.
func wireStoreRequest(name string, dims []int, inflight int) server.OpenStoreRequest {
	return server.OpenStoreRequest{
		Name: name, Disks: []string{string(diskModel)}, Mapping: "multimap", Dims: dims,
		ChunkCells: wireChunkCells, MaxInflight: inflight,
	}
}

func wireTwinOptions(inflight int) []multimap.Option {
	return []multimap.Option{multimap.WithChunkCells(wireChunkCells), multimap.WithMaxInflight(inflight)}
}

// openWire starts the daemon on a loopback listener, opens the store
// over the wire, and begins one wire session per connection.
func openWire(ctx context.Context, sp spec, cfg config) (*instance, error) {
	dims := cubeDims(cfg.side)
	start := time.Now()
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	admin, adminTr := newWireClient(d.addr())
	fail := func(err error) (*instance, error) {
		adminTr.CloseIdleConnections()
		d.stop(ctx)
		return nil, err
	}
	if _, err := admin.OpenStore(ctx, wireStoreRequest(wireStoreName, dims, wireInflight)); err != nil {
		return fail(err)
	}
	secs := time.Since(start).Seconds()
	tgts := make([]target, sp.clients)
	transports := []interface{ CloseIdleConnections() }{adminTr}
	for i := range tgts {
		c, tr := newWireClient(d.addr())
		transports = append(transports, tr)
		sess, err := c.Begin(ctx, wireStoreName, "")
		if err != nil {
			return fail(err)
		}
		tgts[i] = wireTarget{c: c, store: wireStoreName, session: sess}
	}
	in := &instance{
		sp: sp, dims: dims, daemon: d,
		stages:      [][]lane{clientLanes(sameGrid(grid{dims: dims}, sp.clients), tgts)},
		openSeconds: map[string]float64{layoutName(multimap.MultiMap): secs},
	}
	in.counters = func(ctx context.Context) (counters, error) {
		m, err := admin.Metrics(ctx, wireStoreName)
		if err != nil {
			return counters{}, err
		}
		return wireCounters(m), nil
	}
	in.close = func(ctx context.Context) error {
		var first error
		for _, t := range tgts {
			if err := t.Close(ctx); err != nil && first == nil {
				first = err
			}
		}
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
		if err := d.stop(ctx); err != nil && first == nil {
			first = err
		}
		return first
	}
	return in, nil
}

// wireCounters converts the daemon's metrics document.
func wireCounters(m server.MetricsWire) counters {
	var c counters
	for _, sh := range m.Shards {
		t := wireTotals(sh.Totals)
		c.PerShard = append(c.PerShard, t)
		addTotals(&c.Totals, t)
	}
	for _, cl := range m.Classes {
		c.Classes = append(c.Classes, multimap.ClassTotals{
			Class: cl.Class, Ops: cl.Ops, UrgentOps: cl.UrgentOps, Deferred: cl.Deferred,
			Attributed: cl.Attributed.Stats(),
		})
	}
	return c
}

func wireTotals(w server.ServiceTotalsWire) multimap.ServiceTotals {
	return multimap.ServiceTotals{
		Batches: w.Batches, MergedBatches: w.MergedBatches, MaxBatchChunks: w.MaxBatchChunks,
		IssuedRequests: w.IssuedRequests, WriteOps: w.WriteOps, InvalidatedBlocks: w.InvalidatedBlocks,
		FlushBatches: w.FlushBatches, CoalescedWrites: w.CoalescedWrites,
		Attributed: w.Attributed.Stats(),
	}
}

// QoS classes of shard_write: client 0 is interactive, client 1 bulk.
var writeClasses = []struct {
	name   string
	weight int
}{{"interactive", 1}, {"bulk", 4}}

// openShardWrite opens the update path: an updatable MultiMap store
// over two shards with write-back, chunked plans and weighted-fair
// admission, one session per class. Set-up loads every write cell to
// the default fill, so inserts and deletes move points inside home
// blocks and chains stay as loaded.
//
// The extent cache stays off here. With QoS classes registered the
// cache is class-partitioned, and its eviction walks the LRU list past
// every extent of a class at or under its reserve for each victim: at
// 1<<20 blocks a round did not finish in four minutes, at 1<<16 it ran
// at 700 ops/s with run-to-run spreads of 12-28 % (whether the hot
// region stays resident depends on how the two clients interleave), and
// with the cache off it runs at 4000 ops/s and repeats within 2 %. The
// cache is serve_cached's subject; a workload that cannot repeat itself
// cannot gate anything.
func openShardWrite(ctx context.Context, sp spec, cfg config) (*instance, error) {
	dims := cubeDims(cfg.side)
	opts := []multimap.Option{
		multimap.Updatable(multimap.UpdateOptions{}), multimap.WithShards(sp.shards), multimap.WithWriteBack(0, 0),
		multimap.WithChunkCells(sp.chunk), multimap.WithFairShare(fairQuantum),
	}
	for _, c := range writeClasses {
		opts = append(opts, multimap.WithQoSClass(c.name, c.weight, false))
	}
	vol, st, secs, err := openEmbedded(multimap.MultiMap, dims, opts...)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		st.Close()
		vol.Close()
		return nil, err
	}
	cells, err := writeCells(st, dims, sp.clients)
	if err != nil {
		return fail(err)
	}
	loader := st.Begin()
	for _, set := range cells {
		for _, cell := range set {
			if _, err := loader.LoadCell(ctx, cell, loadedPoints); err != nil {
				return fail(fmt.Errorf("load cell %v: %w", cell, err))
			}
		}
	}
	if err := loader.Flush(ctx); err != nil {
		return fail(err)
	}
	tgts := make([]target, sp.clients)
	grids := make([]grid, sp.clients)
	for i := range tgts {
		tgts[i] = embedded{st.BeginQoS(writeClasses[i%len(writeClasses)].name)}
		grids[i] = grid{dims: dims, writeCells: cells[i]}
	}
	name := layoutName(multimap.MultiMap)
	return embeddedInstance(sp, dims, [][]lane{clientLanes(grids, tgts)},
		map[string]*multimap.Store{name: st}, []*multimap.Volume{vol}, map[string]float64{name: secs},
		[]target{embedded{loader}}), nil
}

// writeCells lays each client's write cells out per shard slab: at the
// start of every shard's Dim0 slab, inside the first eighth of the
// other dimensions, so every shard is written and shard 0's cells lie
// in the hot region the readers keep cached. Clients get disjoint
// sets.
func writeCells(st *multimap.Store, dims []int, clients int) ([][][]int, error) {
	slabStart := make([]int, st.NumShards())
	seen := -1
	for x := 0; x < dims[0]; x++ {
		cell := make([]int, len(dims))
		cell[0] = x
		sh, err := st.ShardOf(cell)
		if err != nil {
			return nil, err
		}
		if sh != seen {
			slabStart[sh], seen = x, sh
		}
	}
	g := grid{dims: dims}
	sets := make([][][]int, clients)
	for _, x0 := range slabStart {
		n := 0
	fill:
		for z := 0; z < max(1, dims[2]/8); z++ {
			for y := 0; y < max(1, dims[1]/8); y++ {
				for x := x0; x < min(x0+g.hotSide(0), dims[0]); x++ {
					if n == writeCellsPerSet*clients {
						break fill
					}
					sets[n%clients] = append(sets[n%clients], []int{x, y, z})
					n++
				}
			}
		}
	}
	for i, set := range sets {
		if len(set) == 0 {
			return nil, fmt.Errorf("no write cells for client %d on dims %v", i, dims)
		}
	}
	return sets, nil
}

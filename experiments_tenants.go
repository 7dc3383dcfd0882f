package multimap

// The "tenants" benchmark exercises the pool's whole tenant lifecycle
// under live traffic: tenant A serves a closed-loop QoS burst workload
// on drive 0 while tenant B churns on drive 1 — created, filled past
// its overflow capacity (absorbed online by the pool's WithAutoGrow),
// grown further by an explicit Grow, snapshotted, cloned, queried on
// the clone, dirtied past the snapshot (copy-on-write faults), and
// destroyed — for several rounds.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// tenantsPhases is the canonical lifecycle order every round follows
// and every result reports.
var tenantsPhases = []string{
	"create", "fill", "grow", "snapshot", "clone", "query_clone", "cow_writes", "destroy",
}

// tenantsPhase aggregates one lifecycle phase across all churn rounds.
type tenantsPhase struct {
	Phase string
	// Ops counts the phase's lifecycle operations (inserts for fill and
	// cow_writes, API calls otherwise) across rounds.
	Ops int
	Ms  float64 // total host wall ms across rounds
}

// tenantsResult is the tenants benchmark's structured result.
type tenantsResult struct {
	// GrownBlocks is the capacity added by online Grow calls — direct
	// evidence the overflow-exhausted tenant kept growing without a
	// re-open.
	GrownBlocks int64
	// AutoGrownBlocks is the capacity the pool's WithAutoGrow hook
	// allocated when tenant B's fill exhausted its overflow pool —
	// direct evidence auto-grow absorbed the exhaustion instead of
	// erroring.
	AutoGrownBlocks int64
	// CowFaultBlocks counts parent blocks copied out by post-snapshot
	// writes — direct evidence the copy-on-write path engaged.
	CowFaultBlocks int64
	// BurstOps and the percentiles describe tenant A's live traffic:
	// the ops its sessions completed while tenant B churned, and their
	// host-observed latency.
	BurstOps   int
	BurstP50Ms float64
	BurstP99Ms float64
	Phases     []tenantsPhase
}

// tenantsDims scales the two tenants' dataset shapes. Tenant B stays
// small so filling it past its overflow capacity is cheap.
func tenantsDims(scale float64) (a, b []int) {
	f := math.Cbrt(scale)
	d := func(base, floor int) int {
		n := int(float64(base)*f + 0.5)
		if n < floor {
			n = floor
		}
		return n
	}
	a = []int{d(40, 8), d(16, 6), d(8, 4)}
	b = []int{d(12, 6), d(6, 4), d(4, 3)}
	return a, b
}

// runTenants runs the multi-tenant churn benchmark (experiment id
// "tenants") and returns its table together with the structured
// result. Honored config fields: Disks (first model, hosted twice),
// Scale, Seed, Clients (tenant A burst sessions, default 3),
// FairQuantum and QoSClasses (tenant A admission),
// WriteBack/WBWatermark/WBInterval (tenant B's write path).
func runTenants(cfg ExperimentConfig) (*ExperimentTable, *tenantsResult, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	model := cfg.Disks[0]
	clients := cfg.Clients
	if clients == 0 {
		clients = 3
	}
	const rounds = 2
	ctx := context.Background()
	dimsA, dimsB := tenantsDims(cfg.Scale)

	// Auto-grow sized to roughly one overflow extent per member disk per
	// trigger, so each exhaustion-and-retry shows as a modest, countable
	// step in auto_grown_blocks.
	const autoGrowInc = 256
	p, err := OpenPool(WithPoolDrives(model, model), WithAutoGrow(autoGrowInc))
	if err != nil {
		return nil, nil, err
	}

	// Tenant A: the long-lived serving tenant, pinned to drive 0, with
	// weighted-fair QoS when the run asks for it.
	aOpts := []Option{WithDrives(0), WithCache(1 << 18)}
	classes := cfg.QoSClasses
	if cfg.FairQuantum > 0 {
		if len(classes) == 0 {
			classes = []QoSClass{{Name: "interactive", Weight: 1}, {Name: "bulk", Weight: 4}}
		}
		for _, cl := range classes {
			aOpts = append(aOpts, WithQoSClass(cl.Name, cl.Weight, cl.Urgent))
		}
		aOpts = append(aOpts, WithFairShare(cfg.FairQuantum))
	}
	ta, err := p.Create(ctx, "tenant-a", MultiMap, dimsA, aOpts...)
	if err != nil {
		return nil, nil, err
	}

	// Burst workers: closed-loop sessions on tenant A that keep serving
	// until the churn loop finishes. Each completes at least one op so
	// every result carries live-traffic evidence.
	type worker struct {
		hostMs []float64
		err    error
	}
	workers := make([]*worker, clients)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := range workers {
		w := &worker{}
		workers[i] = w
		class := "interactive"
		if cfg.FairQuantum > 0 && i%2 == 1 {
			class = "bulk"
		}
		sess := ta.Store().BeginQoS(class)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer sess.Close(context.Background())
			for q := 0; ; q++ {
				if q > 0 {
					select {
					case <-done:
						return
					default:
					}
				}
				t0 := time.Now()
				var err error
				if (i+q)%2 == 0 {
					_, err = sess.Beam(ctx, 0, []int{0, (q * 3) % dimsA[1], q % dimsA[2]})
				} else {
					lo := []int{(q * 5) % (dimsA[0] / 2), 0, 0}
					hi := []int{lo[0] + dimsA[0]/4, dimsA[1] / 2, dimsA[2] / 2}
					_, err = sess.RangeQuery(ctx, lo, hi)
				}
				if err != nil {
					w.err = fmt.Errorf("burst client %d op %d: %w", i, q, err)
					return
				}
				w.hostMs = append(w.hostMs, float64(time.Since(t0))/float64(time.Millisecond))
			}
		}(i)
	}

	res := &tenantsResult{}
	phases := make(map[string]*tenantsPhase, len(tenantsPhases))
	for _, name := range tenantsPhases {
		phases[name] = &tenantsPhase{Phase: name}
	}
	step := func(phase string, ops int, f func() error) error {
		t0 := time.Now()
		err := f()
		ph := phases[phase]
		ph.Ops += ops
		ph.Ms += float64(time.Since(t0)) / float64(time.Millisecond)
		return err
	}

	// The churn loop: tenant B's full lifecycle on drive 1, every
	// round, while tenant A's workers keep serving.
	churn := func() error {
		bOpts := []Option{
			WithDrives(1),
			Updatable(UpdateOptions{PointsPerBlock: 4, FillFactor: Frac(1)}),
		}
		if cfg.WriteBack {
			bOpts = append(bOpts, WithWriteBack(cfg.WBWatermark, cfg.WBInterval))
		}
		cell := []int{0, 0, 0}
		for r := 0; r < rounds; r++ {
			var tb *Tenant
			if err := step("create", 1, func() (err error) {
				tb, err = p.Create(ctx, "tenant-b", MultiMap, dimsB, bOpts...)
				return err
			}); err != nil {
				return err
			}
			// Fill one cell's chain past the shard's initial overflow pool —
			// the §4.6 growth limit. With WithAutoGrow on, exhaustion never
			// surfaces: the pool grows the tenant online mid-insert, visible
			// as an allocated-capacity step, and the fill keeps going.
			const fillCap = 100000
			initial := tb.Blocks()
			fills := 0
			if err := step("fill", 0, func() error {
				for fills < fillCap {
					if _, err := tb.Store().Insert(ctx, cell); err != nil {
						if errors.Is(err, core.ErrOverflowExhausted) {
							return fmt.Errorf("multimap: tenants: auto-grow failed to absorb overflow exhaustion: %w", err)
						}
						return err
					}
					fills++
					if tb.Blocks() > initial {
						return nil // auto-grow engaged
					}
				}
				return fmt.Errorf("multimap: tenants: overflow never exhausted after %d inserts", fillCap)
			}); err != nil {
				return err
			}
			phases["fill"].Ops += fills
			before := tb.Blocks()
			if err := step("grow", 1, func() error {
				if err := p.Grow(ctx, "tenant-b", before/2+1); err != nil {
					return err
				}
				_, err := tb.Store().Insert(ctx, cell) // the blocked insert now fits
				return err
			}); err != nil {
				return err
			}
			res.GrownBlocks += tb.Blocks() - before
			var snap *Snapshot
			if err := step("snapshot", 1, func() (err error) {
				snap, err = p.Snapshot(ctx, "tenant-b")
				return err
			}); err != nil {
				return err
			}
			var tc *Tenant
			if err := step("clone", 1, func() (err error) {
				tc, err = p.Clone(ctx, snap, "tenant-b-clone")
				return err
			}); err != nil {
				return err
			}
			if err := step("query_clone", 2, func() error {
				if _, err := tc.Store().FetchCell(ctx, cell); err != nil {
					return err
				}
				_, err := tc.Store().Beam(ctx, 0, []int{0, 0, 0})
				return err
			}); err != nil {
				return err
			}
			// Dirty the parent past the snapshot: these inserts must fault
			// shared blocks into private copies before landing.
			const cowInserts = 8
			if err := step("cow_writes", cowInserts, func() error {
				for i := 0; i < cowInserts; i++ {
					st, err := tb.Store().Insert(ctx, cell)
					if err != nil {
						return err
					}
					res.CowFaultBlocks += st.CowFaultBlocks
				}
				return tb.Store().Flush(ctx)
			}); err != nil {
				return err
			}
			if err := step("destroy", 3, func() error {
				if err := p.Destroy(ctx, "tenant-b-clone"); err != nil {
					return err
				}
				if err := p.Destroy(ctx, "tenant-b"); err != nil {
					return err
				}
				snap.Free()
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	}
	churnErr := churn()
	close(done)
	wg.Wait()
	defer p.Destroy(ctx, "tenant-a")
	if churnErr != nil {
		return nil, nil, churnErr
	}
	for _, w := range workers {
		if w.err != nil {
			return nil, nil, w.err
		}
	}
	for _, u := range p.Usage() {
		res.AutoGrownBlocks += u.AutoGrownBlocks
	}

	var lat []float64
	for _, w := range workers {
		lat = append(lat, w.hostMs...)
	}
	sort.Float64s(lat)
	res.BurstOps = len(lat)
	res.BurstP50Ms = engine.Percentile(lat, 0.50)
	res.BurstP99Ms = engine.Percentile(lat, 0.99)
	for _, name := range tenantsPhases {
		res.Phases = append(res.Phases, *phases[name])
	}

	qosMode := "off"
	if cfg.FairQuantum > 0 {
		qosMode = fmt.Sprintf("quantum %d", cfg.FairQuantum)
	}
	t := &ExperimentTable{
		ID: "tenants",
		Title: fmt.Sprintf("Multi-tenant churn on 2x %s, %d rounds, QoS %s, %d blocks grown (%d auto), %d COW fault blocks",
			model, rounds, qosMode, res.GrownBlocks, res.AutoGrownBlocks, res.CowFaultBlocks),
		Header: []string{"phase", "ops", "total ms"},
	}
	for _, ph := range res.Phases {
		t.Rows = append(t.Rows, []string{ph.Phase, fmt.Sprint(ph.Ops), fmt.Sprintf("%.3f", ph.Ms)})
	}
	t.Rows = append(t.Rows, []string{"live burst (p50/p99 ms)", fmt.Sprint(res.BurstOps),
		fmt.Sprintf("%.3f / %.3f", res.BurstP50Ms, res.BurstP99Ms)})
	return t, res, nil
}

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

// TenantsSchema tags the tenants benchmark's JSON dump (mmbench -exp
// tenants -json) with the result struct it was marshalled from.
const TenantsSchema = "mmbench-tenants/v1"

// tenantsPhases is the canonical lifecycle order every round follows
// and every artifact must report.
var tenantsPhases = []string{
	"create", "fill", "grow", "snapshot", "clone", "query_clone", "cow_writes", "destroy",
}

// TenantsPhase aggregates one lifecycle phase across all churn rounds.
type TenantsPhase struct {
	Phase string `json:"phase"`
	// Ops counts the phase's lifecycle operations (inserts for fill and
	// cow_writes, API calls otherwise) across rounds.
	Ops int     `json:"ops"`
	Ms  float64 `json:"ms"` // total host wall ms across rounds
}

// TenantsResult is the tenants benchmark's full artifact.
type TenantsResult struct {
	Schema      string  `json:"schema"`
	Disk        string  `json:"disk"`
	Scale       float64 `json:"scale"`
	Drives      int     `json:"drives"`
	Rounds      int     `json:"rounds"`
	FairQuantum int64   `json:"fair_quantum"`
	WallSeconds float64 `json:"wall_seconds"`
	// GrownBlocks is the capacity added by online Grow calls — direct
	// evidence the overflow-exhausted tenant kept growing without a
	// re-open.
	GrownBlocks int64 `json:"grown_blocks"`
	// AutoGrownBlocks is the capacity the pool's WithAutoGrow hook
	// allocated when tenant B's fill exhausted its overflow pool —
	// direct evidence auto-grow absorbed the exhaustion instead of
	// erroring.
	AutoGrownBlocks int64 `json:"auto_grown_blocks,omitempty"`
	// CowFaultBlocks counts parent blocks copied out by post-snapshot
	// writes — direct evidence the copy-on-write path engaged.
	CowFaultBlocks int64 `json:"cow_fault_blocks"`
	// BurstOps and the percentiles describe tenant A's live traffic:
	// the ops its sessions completed while tenant B churned, and their
	// host-observed latency.
	BurstOps   int            `json:"burst_ops"`
	BurstP50Ms float64        `json:"burst_p50_ms"`
	BurstP99Ms float64        `json:"burst_p99_ms"`
	Phases     []TenantsPhase `json:"phases"`
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

// RunTenants runs the multi-tenant churn benchmark (experiment id
// "tenants") and returns its table together with the structured
// result, for callers that persist the trajectory (mmbench -json).
// Honored config fields: Disks (first model, hosted twice), Scale,
// Seed, Clients (tenant A burst sessions, default 3), FairQuantum and
// QoSClasses (tenant A admission), WriteBack/WBWatermark/WBInterval
// (tenant B's write path).
func RunTenants(cfg ExperimentConfig) (*ExperimentTable, *TenantsResult, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1
	}
	if cfg.Scale < 0 || cfg.Scale > 1 {
		return nil, nil, fmt.Errorf("multimap: scale %v outside (0,1]", cfg.Scale)
	}
	if cfg.FairQuantum < 0 {
		return nil, nil, fmt.Errorf("multimap: fair-share quantum must be non-negative")
	}
	model := AtlasTenKIII
	if len(cfg.Disks) > 0 {
		model = cfg.Disks[0]
	}
	clients := cfg.Clients
	if clients == 0 {
		clients = 3
	}
	if clients < 1 {
		return nil, nil, fmt.Errorf("multimap: clients must be non-negative")
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
	// every artifact carries live-traffic evidence.
	type worker struct {
		hostMs []float64
		err    error
	}
	workers := make([]*worker, clients)
	done := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
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

	res := &TenantsResult{
		Schema: TenantsSchema,
		Disk:   string(model), Scale: cfg.Scale,
		Drives: 2, Rounds: rounds, FairQuantum: cfg.FairQuantum,
	}
	phases := make(map[string]*TenantsPhase, len(tenantsPhases))
	for _, name := range tenantsPhases {
		ph := &TenantsPhase{Phase: name}
		phases[name] = ph
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
	res.WallSeconds = time.Since(start).Seconds()
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

// ValidateTenants checks a tenants artifact's invariants: the known
// schema, every lifecycle phase present once in canonical order with
// traffic where the lifecycle demands it, online growth and
// copy-on-write evidence present, and a sane burst latency pair.
func ValidateTenants(res *TenantsResult) error {
	if res.Schema != TenantsSchema {
		return fmt.Errorf("tenants: schema %q, want %q", res.Schema, TenantsSchema)
	}
	if res.Disk == "" {
		return fmt.Errorf("tenants: missing disk name")
	}
	if res.Drives < 2 {
		return fmt.Errorf("tenants: %d drives, want at least 2 (live traffic needs its own drive)", res.Drives)
	}
	if res.Rounds < 1 {
		return fmt.Errorf("tenants: non-positive rounds %d", res.Rounds)
	}
	if res.FairQuantum < 0 {
		return fmt.Errorf("tenants: negative fair_quantum %d", res.FairQuantum)
	}
	if res.WallSeconds <= 0 {
		return fmt.Errorf("tenants: non-positive wall_seconds %v", res.WallSeconds)
	}
	if res.GrownBlocks <= 0 {
		return fmt.Errorf("tenants: grown_blocks %d — the lifecycle must grow the tenant online", res.GrownBlocks)
	}
	if res.AutoGrownBlocks < 0 {
		return fmt.Errorf("tenants: negative auto_grown_blocks %d", res.AutoGrownBlocks)
	}
	if res.CowFaultBlocks <= 0 {
		return fmt.Errorf("tenants: cow_fault_blocks %d — post-snapshot writes must fault", res.CowFaultBlocks)
	}
	if res.BurstOps < 1 {
		return fmt.Errorf("tenants: no live burst traffic")
	}
	if res.BurstP50Ms < 0 || res.BurstP50Ms > res.BurstP99Ms {
		return fmt.Errorf("tenants: burst latency out of order: p50=%v p99=%v", res.BurstP50Ms, res.BurstP99Ms)
	}
	if len(res.Phases) != len(tenantsPhases) {
		return fmt.Errorf("tenants: %d phases, want %d", len(res.Phases), len(tenantsPhases))
	}
	for i, ph := range res.Phases {
		if ph.Phase != tenantsPhases[i] {
			return fmt.Errorf("tenants: phases[%d] is %q, want %q", i, ph.Phase, tenantsPhases[i])
		}
		if ph.Ops < 1 {
			return fmt.Errorf("tenants: phase %q has no operations", ph.Phase)
		}
		if ph.Ms < 0 {
			return fmt.Errorf("tenants: phase %q negative ms %v", ph.Phase, ph.Ms)
		}
	}
	return nil
}

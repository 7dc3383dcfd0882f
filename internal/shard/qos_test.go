package shard

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/mapping"
)

// TestGroupClassTotalsMerge: the group-wide per-class view must be the
// deterministic by-name merge of the member services' ClassTotals,
// sorted by class name — the same fold the implementation documents —
// and every class that ran traffic shows up with ops on it.
func TestGroupClassTotalsMerge(t *testing.T) {
	dims := []int{40, 12, 8}
	g, closeAll := testGroup(t, mapping.MultiMap, dims, 3, 4096)
	defer closeAll()
	for i := range g.members {
		if err := g.members[i].Svc.Apply(engine.ServiceOptions{FairQuantum: 256, Classes: []engine.QoSClass{
			{Name: "interactive", Weight: 1},
			{Name: "bulk", Weight: 4},
		}}); err != nil {
			t.Fatal(err)
		}
	}

	// One session per class plus an unclassed one, every query spanning
	// all shards (Dim0 beams and full-Dim0 boxes) so each member service
	// accrues traffic for each class.
	classes := []string{"interactive", "bulk", ""}
	errs := make([]error, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		ss := g.Begin(engine.SessionOptions{Class: class, MaxInflight: 2})
		wg.Add(1)
		go func(i int, ss *Session) {
			defer wg.Done()
			for q := 0; q < 4; q++ {
				if _, err := ss.Beam(context.Background(), 0, []int{0, q, q}); err != nil {
					errs[i] = err
					return
				}
				if _, err := ss.Box(context.Background(), []int{0, q, 0}, []int{40, q + 2, 3}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, ss)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("class %q: %v", classes[i], err)
		}
	}

	merged := g.ClassTotals()
	if len(merged) != len(classes) {
		t.Fatalf("merged %d classes, want %d: %+v", len(merged), len(classes), merged)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Class >= merged[i].Class {
			t.Fatalf("classes not sorted by name: %q before %q", merged[i-1].Class, merged[i].Class)
		}
	}

	// Reproduce the documented fold by hand — by-name sums across
	// members in shard order — and demand an exact match: the merge is
	// deterministic, so even the float accumulation must agree.
	want := map[string]engine.ClassTotals{}
	for i := 0; i < g.NumShards(); i++ {
		for _, ct := range g.Member(i).Svc.ClassTotals() {
			agg := want[ct.Class]
			agg.Class = ct.Class
			agg.Ops += ct.Ops
			agg.UrgentOps += ct.UrgentOps
			agg.Deferred += ct.Deferred
			agg.Attributed.Accumulate(ct.Attributed)
			want[ct.Class] = agg
		}
	}
	for _, ct := range merged {
		if ct.Ops == 0 {
			t.Fatalf("class %q served no ops: %+v", ct.Class, ct)
		}
		if w, ok := want[ct.Class]; !ok || ct != w {
			t.Fatalf("class %q merged %+v, member fold %+v", ct.Class, ct, want[ct.Class])
		}
	}

	// Group-wide attribution-sum per class: the classes' attributed
	// stats must add up to the members' total attributed work.
	var byClass, byShard engine.Stats
	for _, ct := range merged {
		byClass.Accumulate(ct.Attributed)
	}
	for _, tot := range g.ServiceTotals() {
		byShard.Accumulate(tot.Attributed)
	}
	if byClass.Cells != byShard.Cells || byClass.Requests != byShard.Requests ||
		byClass.CacheHits != byShard.CacheHits || byClass.CacheMisses != byShard.CacheMisses {
		t.Fatalf("per-class sums %+v != per-shard sums %+v", byClass, byShard)
	}
}

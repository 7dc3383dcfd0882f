package multimap

import (
	"context"
	"sync"
	"testing"
)

// TestStoreQoSSessions wires the whole public QoS surface together:
// WithFairShare + WithQoSClass configure weighted-fair admission at
// open, WithQoS sets the default session's class, BeginQoS opens
// classed sessions, and Store.ClassTotals reports the per-class
// bookkeeping sorted by name with every class's traffic on it.
func TestStoreQoSSessions(t *testing.T) {
	v, err := OpenVolumeDepth(32, MediumTestDisk)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(v, MultiMap, []int{40, 12, 8},
		WithShards(2),
		WithCache(4096),
		WithFairShare(256),
		WithQoSClass("interactive", 1, false),
		WithQoSClass("bulk", 4, false),
		WithQoSClass("ops", 2, true),
		WithQoS("interactive"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Store-level ops run on the default session → class "interactive";
	// explicit sessions carry their declared class, concurrently.
	bulk := s.BeginQoS("bulk")
	urgent := s.BeginQoS("ops")
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		_, errs[0] = s.Beam(context.Background(), 0, []int{0, 3, 2})
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = bulk.RangeQuery(context.Background(), []int{0, 0, 0}, []int{40, 8, 4})
	}()
	go func() {
		defer wg.Done()
		_, errs[2] = urgent.Beam(context.Background(), 1, []int{20, 0, 1})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	totals := s.ClassTotals()
	got := map[string]ClassTotals{}
	for i, ct := range totals {
		got[ct.Class] = ct
		if i > 0 && totals[i-1].Class >= ct.Class {
			t.Fatalf("ClassTotals not sorted by name: %+v", totals)
		}
	}
	for _, class := range []string{"interactive", "bulk", "ops"} {
		ct, ok := got[class]
		if !ok || ct.Ops == 0 {
			t.Fatalf("class %q shows no traffic: %+v", class, totals)
		}
		if ct.Attributed.Cells == 0 {
			t.Fatalf("class %q has ops but no attributed cells: %+v", class, ct)
		}
	}
	// The urgent class's ops all rode the strict-priority front batch;
	// the weighted classes never did (no deadlines).
	if u := got["ops"]; u.UrgentOps != u.Ops {
		t.Fatalf("urgent class served %d of %d ops urgently", u.UrgentOps, u.Ops)
	}
	if got["interactive"].UrgentOps != 0 || got["bulk"].UrgentOps != 0 {
		t.Fatalf("weighted classes saw urgent service: %+v", totals)
	}

	// Option misuse fails the open.
	if _, err := Open(v, MultiMap, []int{40, 12, 8}, WithFairShare(-1)); err == nil {
		t.Error("negative fair-share quantum accepted")
	}
	if _, err := Open(v, MultiMap, []int{40, 12, 8}, WithQoSClass("x", 0, false)); err == nil {
		t.Error("zero class weight accepted")
	}
	if _, err := Open(v, MultiMap, []int{40, 12, 8},
		WithQoSClass("x", 1, false), WithQoSClass("x", 2, false)); err == nil {
		t.Error("duplicate class registration accepted")
	}
}

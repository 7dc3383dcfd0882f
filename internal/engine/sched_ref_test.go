package engine

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/lvm"
)

// The admission scheduler as it stood when serveWork had separate arms
// — submission order (fair share off) and deficit round-robin with
// takeUrgent (fair share on) — kept as the oracle the one scheduler in
// qos.go is compared against, together with qosGroupsRef, the original
// urgent-front classifier that fair share at one class reproduces.
// Nothing here calls isUrgent or sortUrgent: the reference carries its
// own urgency test and effective-deadline order, so a mutation of
// either is caught.
//
// One deliberate difference from the parent: its takeUrgent ranged over
// the pending map, so urgent ops of different classes with EQUAL
// effective deadlines came out in map order — any order, run to run.
// The reference (like qos.go now) visits classes in name order, which is
// one of the orders the parent could produce.

func refUrgent(op *serviceOp, classes map[string]QoSClass) bool {
	if !op.deadline.IsZero() {
		return true
	}
	c, ok := classes[op.class]
	return ok && c.Urgent
}

func refSortUrgent(ops []*serviceOp) {
	eff := func(op *serviceOp) time.Time {
		if !op.deadline.IsZero() {
			return op.deadline
		}
		return op.enqueued
	}
	slices.SortStableFunc(ops, func(a, b *serviceOp) int { return eff(a).Compare(eff(b)) })
}

// qosGroupsRef is the original urgent-front classifier: the
// deadline-carrying ops as one batch ordered by deadline, then the rest
// in submission order. An Urgent class is inert (it has no registry).
func qosGroupsRef(ops []*serviceOp) [][]*serviceOp {
	var urgent, bulk []*serviceOp
	for _, op := range ops {
		if refUrgent(op, nil) {
			urgent = append(urgent, op)
		} else {
			bulk = append(bulk, op)
		}
	}
	refSortUrgent(urgent)
	var groups [][]*serviceOp
	if len(urgent) > 0 {
		groups = append(groups, urgent)
	}
	if len(bulk) > 0 {
		groups = append(groups, bulk)
	}
	return groups
}

// refSched is the parent's drrSched: per-class backlogs and deficits.
type refSched struct {
	pending map[string][]*serviceOp
	deficit map[string]int64
	count   int
}

func newRefSched() *refSched {
	return &refSched{pending: map[string][]*serviceOp{}, deficit: map[string]int64{}}
}

func (d *refSched) push(ops []*serviceOp) {
	for _, op := range ops {
		d.pending[op.class] = append(d.pending[op.class], op)
		d.count++
	}
}

func (d *refSched) activeClasses() []string {
	names := make([]string, 0, len(d.pending))
	for name, q := range d.pending {
		if len(q) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func (d *refSched) takeUrgent(classes map[string]QoSClass) []*serviceOp {
	var urgent []*serviceOp
	for _, name := range d.activeClasses() {
		q := d.pending[name]
		var kept []*serviceOp
		for _, op := range q {
			if refUrgent(op, classes) {
				urgent = append(urgent, op)
				d.count--
			} else {
				kept = append(kept, op)
			}
		}
		d.pending[name] = kept
	}
	return urgent
}

func (d *refSched) grant(classes map[string]QoSClass, quantum int64) [][]*serviceOp {
	if d.count == 0 {
		return nil
	}
	var groups [][]*serviceOp
	for len(groups) == 0 {
		for _, name := range d.activeClasses() {
			d.deficit[name] += quantum * classWeight(classes, name)
			q := d.pending[name]
			n := 0
			for n < len(q) && opCost(q[n]) <= d.deficit[name] {
				d.deficit[name] -= opCost(q[n])
				n++
			}
			if n > 0 {
				groups = append(groups, q[:n:n])
				d.pending[name] = q[n:]
				d.count -= n
			}
			if len(d.pending[name]) == 0 {
				d.deficit[name] = 0
			}
		}
	}
	sort.SliceStable(groups, func(i, j int) bool {
		ci, cj := groupCost(groups[i]), groupCost(groups[j])
		if ci != cj {
			return ci < cj
		}
		return groups[i][0].class < groups[j][0].class
	})
	return groups
}

// pass is the parent's serveWork with the serving taken out: the
// batches one admission pass serves, in service order.
func (d *refSched) pass(live []*serviceOp, classes map[string]QoSClass, quantum int64) [][]*serviceOp {
	if quantum <= 0 {
		if len(live) > 0 {
			return [][]*serviceOp{live}
		}
		return nil
	}
	d.push(live)
	var groups [][]*serviceOp
	if urgent := d.takeUrgent(classes); len(urgent) > 0 {
		refSortUrgent(urgent)
		groups = append(groups, urgent)
	}
	return append(groups, d.grant(classes, quantum)...)
}

// deferredOps lists a backlog in class order, FIFO within a class.
func deferredOps(pending map[string][]*serviceOp) []*serviceOp {
	names := make([]string, 0, len(pending))
	for name := range pending {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []*serviceOp
	for _, name := range names {
		out = append(out, pending[name]...)
	}
	return out
}

// servedOrder is the batches of one pass in the order serveWork serves
// them: the urgent front, when there is one, then the granted groups.
func servedOrder(urgent []*serviceOp, groups [][]*serviceOp) [][]*serviceOp {
	if len(urgent) > 0 {
		return append([][]*serviceOp{urgent}, groups...)
	}
	return groups
}

// passGroups runs one pass over ops on an empty scheduler.
func passGroups(ops []*serviceOp, classes map[string]QoSClass, quantum int64) [][]*serviceOp {
	return servedOrder(newDRRSched().pass(ops, classes, quantum))
}

// TestSchedulerMatchesThreeArms: over seeded op lists — several classes
// (one registered Urgent, one unregistered), explicit deadlines, spread
// enqueue stamps (the Urgent class's order), block costs around the
// quantum — with fair share off and on, a run of passes on one
// scheduler (so backlog and deficits carry from pass to pass, ending in
// pure backlog passes until the reference has drained) serves exactly
// the reference's batches: same membership, same batch order, same op
// order, and the same ops left deferred. (The name counts the arms the
// reference once had; two remain.)
func TestSchedulerMatchesThreeArms(t *testing.T) {
	classes := map[string]QoSClass{
		"":     {Name: "", Weight: 1},
		"bulk": {Name: "bulk", Weight: 4},
		"int":  {Name: "int", Weight: 1},
		"rt":   {Name: "rt", Weight: 1, Urgent: true},
	}
	names := []string{"", "bulk", "int", "rt", "unregistered"}
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, quantum := range []int64{0, 8} {
			got, want := newDRRSched(), newRefSched()
			now := time.Unix(1_000_000, 0)
			for pass, passes := 0, 2+rng.Intn(3); pass < passes || want.count > 0; pass++ {
				var ops []*serviceOp
				if pass < passes {
					ops = make([]*serviceOp, rng.Intn(10))
				}
				for i := range ops {
					op := &serviceOp{kind: opChunk, class: names[rng.Intn(len(names))],
						chunk: Chunk{Reqs: []lvm.Request{{Count: 1 + rng.Intn(20)}}}}
					// Stamps in half-millisecond steps tie often.
					op.enqueued = now.Add(-time.Duration(rng.Intn(10)) * time.Millisecond / 2)
					if rng.Intn(4) == 0 {
						op.deadline = now.Add(time.Duration(rng.Intn(5)-1) * time.Millisecond)
					}
					ops[i] = op
				}
				w := want.pass(slices.Clone(ops), classes, quantum)
				g := servedOrder(got.pass(slices.Clone(ops), classes, quantum))
				if len(g) != len(w) {
					t.Fatalf("seed %d quantum %d pass %d: %d batches, want %d",
						seed, quantum, pass, len(g), len(w))
				}
				for i := range w {
					if !slices.Equal(g[i], w[i]) {
						t.Fatalf("seed %d quantum %d pass %d: batch %d differs",
							seed, quantum, pass, i)
					}
				}
				if !slices.Equal(deferredOps(got.pending), deferredOps(want.pending)) || got.count != want.count {
					t.Fatalf("seed %d quantum %d pass %d: deferred sets differ (%d vs %d ops)",
						seed, quantum, pass, got.count, want.count)
				}
				now = now.Add(time.Duration(rng.Intn(3)) * time.Millisecond / 2)
			}
		}
	}
}

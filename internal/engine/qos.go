package engine

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// Weighted fair QoS admission — the one admission scheduler. Sessions
// declare a QoS class (SessionOptions.Class); the service registers
// classes with weights (ServiceOptions.Classes). When FairQuantum is
// positive the admission batcher runs deficit round-robin over
// simulated block cost: each admission pass grants every class with
// pending work quantum × weight blocks of credit (deficits carry
// across passes while the class stays backlogged, and reset when its
// backlog drains, the classic DRR anti-hoarding rule), admits each
// class's ops FIFO while its credit covers their block cost, and
// serves every class's grant as its own admission batch — ops of
// different classes are never coalesced into one disk batch, so one
// class's bulk scan cannot ride ahead inside another's batch. Ops a
// pass could not afford stay queued for the next pass; the loop keeps
// making passes (each granting fresh credit, and always admitting at
// least one op when anything is pending, so a single op costlier than
// its class's whole grant still goes) until the backlog drains.
//
// PR 5's urgent-front behavior is the strict-priority edge of the same
// scheduler: ops with an explicit context deadline, ops of a class
// registered Urgent, and ops queued at least the DeadlineAging
// duration bypass DRR entirely and are served first, as their own
// batch ordered by effective deadline — aging therefore promotes a
// starving bulk op into the urgent class, which bounds how long
// weighted sharing may defer anyone. Urgent service is not charged
// against the class's deficit.
//
// FairQuantum 0 is the same scheduler with one class and unbounded
// credit: every op is queued under the default class whatever its
// session declared, the class registry is not consulted (an Urgent
// class is inert), and each pass grants the whole backlog as one group
// in submission order — nothing is ever deferred. With DeadlineAging on
// the urgent front still runs ahead of that group (deadline-carrying
// and aged ops, PR 5's behavior bit for bit); with aging off too there
// is no urgent front at all and explicit deadlines do not reorder
// anything — the pre-QoS submission order.

// QoSClass declares one admission class. The JSON tags are its wire
// form in the daemon's open-store request.
type QoSClass struct {
	// Name is the class label sessions reference via
	// SessionOptions.Class. The empty name is the default class every
	// unlabelled session belongs to.
	Name string `json:"name"`
	// Weight is the class's share of each admission pass: a pass
	// grants the class FairQuantum × Weight blocks of credit. Values
	// below 1 are treated as 1.
	Weight int `json:"weight"`
	// Urgent marks a strict-priority class: its ops always join the
	// urgent front batch (ahead of all weighted sharing), exactly as
	// if each carried an explicit context deadline.
	Urgent bool `json:"urgent,omitempty"`
}

// DefaultFairQuantum is the DRR quantum applied when fair-share
// admission is enabled with a zero quantum: blocks of admission credit
// per weight unit per pass.
const DefaultFairQuantum = int64(1024)

// weight returns the registered weight of a class (1 for unregistered
// classes, and at least 1 always).
func classWeight(classes map[string]QoSClass, name string) int64 {
	if c, ok := classes[name]; ok && c.Weight > 1 {
		return int64(c.Weight)
	}
	return 1
}

// opCost is the DRR measure of one work op: the simulated blocks it
// asks for. A zero-block op costs 1 so admission always drains it.
func opCost(op *serviceOp) int64 {
	var n int64
	for _, r := range op.chunk.Reqs {
		n += int64(r.Count)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// drrSched is the loop-owned deficit-round-robin state: per-class FIFO
// backlogs and credit counters. Only the service loop touches it. names,
// urgent and groups are scratch reused from pass to pass, so what pass
// returns is valid until the next pass or drain.
type drrSched struct {
	pending map[string][]*serviceOp
	deficit map[string]int64
	count   int

	names  []string
	urgent []*serviceOp
	groups [][]*serviceOp
}

func newDRRSched() *drrSched {
	return &drrSched{
		pending: make(map[string][]*serviceOp),
		deficit: make(map[string]int64),
	}
}

// pass runs one admission pass: ops join the backlog in submission
// order, whatever has become urgent leaves it as the strict-priority
// front batch (in sortUrgent order), and one DRR round grants the rest.
// The caller serves urgent first, then groups in order, each as its own
// admission batch. quantum 0 is the one-class, unbounded-credit reading
// described at the top of this file; a nil ops slice is a pure backlog
// pass.
func (d *drrSched) pass(ops []*serviceOp, classes map[string]QoSClass, quantum int64, aging time.Duration, now time.Time) (urgent []*serviceOp, groups [][]*serviceOp) {
	fair := quantum > 0
	if !fair {
		classes = nil
	}
	for _, op := range ops {
		key := ""
		if fair {
			key = op.class
		}
		d.pending[key] = append(d.pending[key], op)
		d.count++
	}
	if fair || aging > 0 {
		urgent = d.takeUrgent(classes, aging, now)
		sortUrgent(urgent, aging)
	}
	return urgent, d.grant(classes, quantum)
}

// activeClasses returns the backlogged class names in sorted order —
// the deterministic round-robin sequence.
func (d *drrSched) activeClasses() []string {
	names := d.names[:0]
	for name, q := range d.pending {
		if len(q) > 0 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	d.names = names
	return names
}

// takeUrgent pulls every backlogged op that has become urgent — aged
// past the aging cap, holding an explicit deadline, or in an Urgent
// class — out of the class backlogs, in class-name order and preserving
// order within each class. This is how aging promotes a DRR-deferred op
// into the urgent class.
func (d *drrSched) takeUrgent(classes map[string]QoSClass, aging time.Duration, now time.Time) []*serviceOp {
	urgent := d.urgent[:0]
	for _, name := range d.activeClasses() {
		q := d.pending[name]
		kept := q[:0]
		for _, op := range q {
			if isUrgent(op, classes, aging, now) {
				urgent = append(urgent, op)
				d.count--
			} else {
				kept = append(kept, op)
			}
		}
		d.pending[name] = kept
	}
	d.urgent = urgent
	return urgent
}

// grant runs one DRR round: every backlogged class earns quantum ×
// weight credit (unbounded credit at quantum 0), then admits ops FIFO
// while the credit covers their block cost. A class whose backlog
// drains forfeits its leftover credit — and hands its queue's backing
// array back for the next pass's ops, which is safe because a pass's
// groups are served before the next pass begins. When a full round
// admits nothing (every class's head op costs more than its accumulated
// credit), rounds repeat until one op is admitted — progress per pass
// is guaranteed. Returns the admitted ops grouped per class, cheapest
// group first: groups are served sequentially within the pass, so a
// light latency-sensitive group (an interactive class's point reads)
// completes ahead of a heavy scan group's simulation instead of waiting
// it out, at the cost of delaying the heavy group by only the light
// groups' small service time. Ties break on class name, keeping the
// order deterministic.
func (d *drrSched) grant(classes map[string]QoSClass, quantum int64) [][]*serviceOp {
	if d.count == 0 {
		return nil
	}
	groups := d.groups[:0]
	for len(groups) == 0 {
		for _, name := range d.activeClasses() {
			credit := int64(math.MaxInt64)
			if quantum > 0 {
				credit = d.deficit[name] + quantum*classWeight(classes, name)
			}
			q := d.pending[name]
			n := 0
			for n < len(q) {
				cost := opCost(q[n])
				if cost > credit {
					break
				}
				credit -= cost
				n++
			}
			if n > 0 {
				groups = append(groups, q[:n:n])
				d.count -= n
			}
			if n == len(q) {
				d.pending[name], d.deficit[name] = q[:0], 0
			} else {
				d.pending[name], d.deficit[name] = q[n:], credit
			}
		}
	}
	slices.SortStableFunc(groups, func(a, b []*serviceOp) int {
		return cmp.Or(cmp.Compare(groupCost(a), groupCost(b)), cmp.Compare(a[0].class, b[0].class))
	})
	d.groups = groups
	return groups
}

// groupCost is one admitted group's total simulated block cost.
func groupCost(group []*serviceOp) int64 {
	var sum int64
	for _, op := range group {
		sum += opCost(op)
	}
	return sum
}

// drain empties every backlog — ops grouped per class in sorted class
// order, FIFO within each class — forfeiting all credit. Used before
// control-op barriers and on close, where deferral would reorder ops
// across a barrier or strand submitters.
func (d *drrSched) drain() [][]*serviceOp {
	if d.count == 0 {
		return nil
	}
	var groups [][]*serviceOp
	for _, name := range d.activeClasses() {
		groups = append(groups, d.pending[name])
		d.pending[name] = nil
		d.deficit[name] = 0
	}
	d.count = 0
	return groups
}

// isUrgent classifies one op for the strict-priority front: explicit
// context deadline, Urgent class, or queued at least the aging cap.
func isUrgent(op *serviceOp, classes map[string]QoSClass, aging time.Duration, now time.Time) bool {
	if !op.deadline.IsZero() {
		return true
	}
	if c, ok := classes[op.class]; ok && c.Urgent {
		return true
	}
	return aging > 0 && now.Sub(op.enqueued) >= aging
}

// sortUrgent orders the urgent front batch by effective deadline: the
// explicit context deadline when present, otherwise enqueue time plus
// the aging cap (plain enqueue time when aging is off) — PR 5's
// ordering, extended to Urgent-class ops.
func sortUrgent(ops []*serviceOp, aging time.Duration) {
	eff := func(op *serviceOp) time.Time {
		if !op.deadline.IsZero() {
			return op.deadline
		}
		return op.enqueued.Add(aging)
	}
	slices.SortStableFunc(ops, func(a, b *serviceOp) int { return eff(a).Compare(eff(b)) })
}

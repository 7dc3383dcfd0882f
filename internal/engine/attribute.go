package engine

// The service loop — ATTRIBUTE stage (service.go maps the stages). An
// op is priced once, here on the loop's side, as a Stats: the plan stage
// counts its cache hits and misses into opResult.stats, finish* add each
// served request's cost (or the op's share of it) and cells, the write
// paths their writes, invalidations and COW faults. account and
// chargeWrite Accumulate that one value into the totals the sessions
// must sum to — ServiceTotals.Attributed and the per-class ClassTotals,
// together (attributed) — and reply with it; the session Accumulates the
// same value on its side, so the sum property holds by construction.
// This is the code that holds mu on the loop's side: it may touch totals
// and perClass, and of the loop-owned state only the scratch it is
// handed and the extent cache, into which finish* insert what was just
// served. The snapshots other goroutines read (Totals, ClassTotals) live
// here too.

import (
	"cmp"
	"slices"

	"repro/internal/lvm"
)

// ServiceTotals is the service loop's own bookkeeping, the ground truth
// the per-session Stats must add up to. Like Stats, it goes onto the
// daemon's wire as is: the json tags are the format.
type ServiceTotals struct {
	// Batches counts admission batches served; MergedBatches counts
	// those that coalesced more than one chunk, and MaxBatchChunks is
	// the largest admission batch seen — direct evidence of how many
	// queries were in flight together.
	Batches        int64 `json:"batches"`
	MergedBatches  int64 `json:"merged_batches"`
	MaxBatchChunks int   `json:"max_batch_chunks"`
	// IssuedRequests counts requests actually sent to the disks after
	// cross-query coalescing and cache hits.
	IssuedRequests int64 `json:"issued_requests"`
	// WriteOps counts write ops served (write-through) or absorbed into
	// the write-back buffer; InvalidatedBlocks counts cached blocks
	// their write-aware invalidation dropped (also folded into
	// Attributed.InvalidatedBlocks).
	WriteOps          int64 `json:"write_ops,omitempty"`
	InvalidatedBlocks int64 `json:"invalidated_blocks,omitempty"`
	// FlushBatches counts group commits of the write-back buffer — each
	// flush issues the whole dirty set as one SPTF batch.
	// CoalescedWrites counts write ops absorbed into an already-dirty
	// extent, i.e. writes that will share a group-commit I/O with
	// earlier buffered writes instead of paying their own positioning
	// cost. DirtyBlocks is the current write-back buffer size in blocks
	// — a gauge, not a counter; it returns to 0 after every flush. All
	// three stay zero with write-back off.
	FlushBatches    int64 `json:"flush_batches,omitempty"`
	CoalescedWrites int64 `json:"coalesced_writes,omitempty"`
	DirtyBlocks     int64 `json:"dirty_blocks,omitempty"`
	// Cancelled and DeadlineExceeded count queued operations dropped
	// before admission because their context was cancelled or past its
	// deadline. Dropped ops charge no simulated I/O and contribute
	// nothing to Attributed. Each drop is also counted by its
	// submitting session's Stats — but session counters additionally
	// include drops that never reached the queue (a session aborting
	// between planner chunks), so summed session counters are an upper
	// bound on these fields, not an equality.
	Cancelled        int64 `json:"cancelled,omitempty"`
	DeadlineExceeded int64 `json:"deadline_exceeded,omitempty"`
	// Attributed aggregates exactly what was handed back to sessions:
	// summing every session's per-query Stats reproduces these fields
	// (ElapsedMs aside — each chunk of a merged batch observes the full
	// batch's elapsed time, while Attributed counts it once).
	Attributed Stats `json:"attributed"`
}

// ClassTotals is one QoS class's slice of the service bookkeeping.
// Summing every class's Attributed reproduces ServiceTotals.Attributed
// field for field — the attribution-sum property, now per class —
// except ElapsedMs: a batch's elapsed time is observed once per
// contributing class (like sessions observe it), so summed class
// ElapsedMs can exceed the service's. The json tags are the daemon's
// wire format.
type ClassTotals struct {
	// Class is the class name ("" is the default class).
	Class string `json:"class"`
	// Ops counts work ops (read chunks and writes) served or absorbed
	// for the class; UrgentOps counts the subset that went through the
	// strict-priority front; Deferred counts deferral events — an op
	// held back by DRR for at least one admission pass.
	Ops       int64 `json:"ops"`
	UrgentOps int64 `json:"urgent_ops,omitempty"`
	Deferred  int64 `json:"deferred,omitempty"`
	// Attributed is the class's share of ServiceTotals.Attributed:
	// exactly what was handed back to the class's sessions.
	Attributed Stats `json:"attributed"`
}

// opResult is the loop's answer to one op: what the op cost its
// session — the value already folded into Attributed, ElapsedMs aside
// (each op of a shared batch observes the batch's in full) — and why it
// failed, if it did. A dropped op's stats carry its cancellation counter
// and, for a write, the invalidation it still performed.
type opResult struct {
	stats Stats
	err   error
}

// Totals snapshots the service-loop bookkeeping.
func (s *Service) Totals() ServiceTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// ClassTotals snapshots the per-QoS-class slice of the service
// bookkeeping, sorted by class name. Each entry's Attributed is the
// class's share of Totals().Attributed: summing the entries
// reproduces it field for field, ElapsedMs aside (a shared batch's
// elapsed time is observed once per contributing class).
func (s *Service) ClassTotals() []ClassTotals {
	s.mu.Lock()
	out := make([]ClassTotals, 0, len(s.perClass))
	for _, ct := range s.perClass {
		out = append(out, *ct)
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b ClassTotals) int {
		return cmp.Compare(a.Class, b.Class)
	})
	return out
}

// classTot returns the per-class totals bucket, creating it on first
// use. Caller must hold mu.
func (s *Service) classTot(name string) *ClassTotals {
	ct := s.perClass[name]
	if ct == nil {
		ct = &ClassTotals{Class: name}
		s.perClass[name] = ct
	}
	return ct
}

// attributed returns a class's totals bucket and the two Stats every
// cost handed back to one of its sessions is folded into — the
// service-wide Attributed and the class's share of it. A site applies
// its folds to both in one loop, so the two can only ever differ by
// what the class did not do. Caller must hold mu.
func (s *Service) attributed(class string) (*ClassTotals, [2]*Stats) {
	ct := s.classTot(class)
	return ct, [2]*Stats{&s.totals.Attributed, &ct.Attributed}
}

// finishSingle is a lone chunk's completion stage: price the served
// requests (the plan's survivors) into res, insert them into the cache,
// account and reply.
func (s *Service) finishSingle(op *serviceOp, res opResult, comps []lvm.Completion, elapsed float64) {
	res.stats.AddCompletions(comps, 0)
	for _, c := range comps {
		s.cache.insertFor(c.Req.VLBN, c.Req.VLBN+int64(c.Req.Count), op.class) // nil-safe
	}
	s.account([]*serviceOp{op}, []opResult{res}, int64(len(comps)), elapsed)
}

// finishMerged is a merged batch's completion stage: charge each served
// extent to its contributors, splitting its cost in proportion to the
// blocks each asked for (blocks wanted by several queries are read once;
// every query is still credited its own cells), insert the extents into
// the cache, account and reply.
func (s *Service) finishMerged(items []*serviceOp, comps []lvm.Completion, elapsed float64) {
	sc := &s.scratch.merge
	if len(sc.reqs) > 0 {
		// Extents are disjoint, so a completion maps back by start VLBN.
		if sc.compAt == nil {
			sc.compAt = make(map[int64]lvm.Completion, len(comps))
		} else {
			clear(sc.compAt)
		}
		for _, c := range comps {
			sc.compAt[c.Req.VLBN] = c
		}
		for k, r := range sc.reqs {
			c := sc.compAt[r.VLBN]
			// A shared extent is tagged with its first contributor's class.
			s.cache.insertFor(r.VLBN, r.VLBN+int64(r.Count), items[sc.entries[sc.members[k][0]].item].class) // nil-safe
			var owned int64
			for _, mi := range sc.members[k] {
				owned += int64(sc.entries[mi].req.Count)
			}
			// A sole contributor's share is the cost times exactly 1.
			for _, mi := range sc.members[k] {
				e := sc.entries[mi]
				st := &sc.results[e.item].stats
				st.addCost(c.Cost.Scaled(float64(e.req.Count) / float64(owned)))
				st.Cells += int64(e.req.Count)
			}
		}
	}
	s.account(items, sc.results, int64(len(sc.reqs)), elapsed)
}

// account closes one served admission batch: each op's price gains its
// chunk's padding and is Accumulated into the service totals, the
// batch's elapsed time is charged once to the service and once per
// contributing class, and every op is answered with its price — which
// observes that elapsed time in full.
func (s *Service) account(items []*serviceOp, results []opResult, issued int64, elapsed float64) {
	s.mu.Lock()
	t := &s.totals
	t.Batches++
	if len(items) > 1 {
		t.MergedBatches++
	}
	t.MaxBatchChunks = max(t.MaxBatchChunks, len(items))
	t.IssuedRequests += issued
	touched := s.scratch.touched
	clear(touched)
	for i, it := range items {
		results[i].stats.Padding = it.chunk.Padding
		ct, dst := s.attributed(it.class)
		ct.Ops++
		for _, a := range dst {
			a.Accumulate(results[i].stats)
		}
		touched[it.class] = true
	}
	s.addElapsed(touched, elapsed)
	s.mu.Unlock()
	for i, it := range items {
		results[i].stats.ElapsedMs = elapsed
		it.reply <- results[i]
	}
}

// addElapsed charges one batch's elapsed time: once to the service, and
// once per contributing class — like sessions, summed class ElapsedMs
// is not additive. Caller must hold mu.
func (s *Service) addElapsed(classes map[string]bool, elapsed float64) {
	s.totals.Attributed.ElapsedMs += elapsed
	for class := range classes {
		s.classTot(class).Attributed.ElapsedMs += elapsed
	}
}

// chargeWrite closes one write op, however it ended — served
// write-through, absorbed into the dirty buffer, or failed with err
// after its COW fault and invalidation had already happened: those stay
// visible to later reads, so they stay in res.stats, which is folded
// into the bookkeeping and sent back either way, and the session's
// totals still sum to Attributed. issued is the number of requests that
// reached the disks on the op's behalf.
func (s *Service) chargeWrite(op *serviceOp, res opResult, issued int, err error) {
	s.mu.Lock()
	t := &s.totals
	t.WriteOps++
	t.CoalescedWrites += res.stats.CoalescedWrites
	t.InvalidatedBlocks += res.stats.InvalidatedBlocks
	t.IssuedRequests += int64(issued)
	if s.wb != nil {
		t.DirtyBlocks = s.wb.blocks
	}
	ct, dst := s.attributed(op.class)
	ct.Ops++
	for _, a := range dst {
		a.Accumulate(res.stats)
	}
	s.mu.Unlock()
	res.err = err
	op.reply <- res
}

// Accumulate folds another query's stats into s — lifetime session
// totals, experiment aggregation.
func (s *Stats) Accumulate(q Stats) {
	s.Cells += q.Cells
	s.Padding += q.Padding
	s.Requests += q.Requests
	s.TotalMs += q.TotalMs
	s.ElapsedMs += q.ElapsedMs
	s.CommandMs += q.CommandMs
	s.SeekMs += q.SeekMs
	s.RotateMs += q.RotateMs
	s.TransferMs += q.TransferMs
	s.CacheHits += q.CacheHits
	s.CacheMisses += q.CacheMisses
	s.Writes += q.Writes
	s.InvalidatedBlocks += q.InvalidatedBlocks
	s.CoalescedWrites += q.CoalescedWrites
	s.CowFaultBlocks += q.CowFaultBlocks
	s.FlushBatches += q.FlushBatches
	s.Cancelled += q.Cancelled
	s.DeadlineExceeded += q.DeadlineExceeded
	s.Partial = s.Partial || q.Partial
}

// Accumulate folds another service's totals into t — a shard group's
// sum: counters add (the DirtyBlocks gauges too), the max-batch
// high-water mark takes the maximum, and Attributed accumulates
// field-wise.
func (t *ServiceTotals) Accumulate(u ServiceTotals) {
	t.Batches += u.Batches
	t.MergedBatches += u.MergedBatches
	t.MaxBatchChunks = max(t.MaxBatchChunks, u.MaxBatchChunks)
	t.IssuedRequests += u.IssuedRequests
	t.WriteOps += u.WriteOps
	t.InvalidatedBlocks += u.InvalidatedBlocks
	t.FlushBatches += u.FlushBatches
	t.CoalescedWrites += u.CoalescedWrites
	t.DirtyBlocks += u.DirtyBlocks
	t.Cancelled += u.Cancelled
	t.DeadlineExceeded += u.DeadlineExceeded
	t.Attributed.Accumulate(u.Attributed)
}

// Accumulate folds another service's totals for the same class into c
// (Class, the key, is left alone).
func (c *ClassTotals) Accumulate(u ClassTotals) {
	c.Ops += u.Ops
	c.UrgentOps += u.UrgentOps
	c.Deferred += u.Deferred
	c.Attributed.Accumulate(u.Attributed)
}

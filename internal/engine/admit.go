package engine

// The service loop — ADMIT stage (service.go maps the stages). One
// pass's ops become served batches here: a Flush is a barrier, dead
// contexts are dropped before they cost anything, and the one scheduler
// (qos.go) decides which work ops go now, in what batches, and which
// wait. Runs on the loop goroutine only. It may touch the scheduler's
// backlog and, to invalidate on behalf of a dropped write, the extent
// cache; it takes mu only to count drops, urgent ops and deferrals. It
// never touches the disks: everything it admits goes through
// serveChunks (serve.go).

import (
	"context"
	"errors"
)

// process serves one admitted batch in submission order: consecutive
// chunk and write ops form admission batches; a Flush, the one control
// op, is a barrier. It also drains the DRR backlog first — ops the fair
// scheduler deferred were submitted before the Flush, so deferring them
// past it would reorder work across the barrier.
func (s *Service) process(batch []*serviceOp) {
	for i := 0; i < len(batch); {
		if batch[i].kind == opFlush {
			s.drainDeferred()
			s.handleFlush(batch[i])
			i++
			continue
		}
		j := i
		for j < len(batch) && batch[j].kind != opFlush {
			j++
		}
		s.serveWork(batch[i:j])
		i = j
	}
}

// serveWork admits one run of work ops: ops whose context is already
// cancelled or past its deadline are dropped first — before admission,
// so they are never issued and charge no simulated I/O — then the live
// ops join the scheduler's backlog and one admission pass runs (see
// drrSched.pass): urgent work first (strict priority, ordered by
// effective deadline), then each backlogged class's granted ops as
// their own batch, never coalescing across classes. A nil ops slice runs a pure backlog pass — how
// the loop drains deferred work when the queue is empty.
func (s *Service) serveWork(ops []*serviceOp) {
	live := s.dropCancelled(ops)
	s.sweepDeferred()
	urgent, groups := s.drr.pass(live, s.classes, s.opts.FairQuantum)
	if len(urgent) > 0 {
		s.countUrgent(urgent)
		s.serveChunks(urgent)
	}
	for _, group := range groups {
		s.serveChunks(group)
	}
	s.markDeferred()
}

// dropCancelled replies to — and filters out — every op whose context
// is done, counting the drops in the service totals. The reply carries
// the context error and the drop's price — the matching
// Cancelled/DeadlineExceeded counter and no I/O — which the submitting
// session accumulates like any other, so the two sides agree event for
// event. A dropped write op still performs
// its cache invalidation: the submitter's cell state already mutated
// by the time the write was queued, so skipping the invalidation would
// leave stale extents readable — the coherence contract survives
// cancellation, only the simulated I/O is never issued or charged.
func (s *Service) dropCancelled(ops []*serviceOp) []*serviceOp {
	live := ops[:0]
	for _, op := range ops {
		if op.ctx != nil {
			if err := op.ctx.Err(); err != nil {
				var d Stats
				if errors.Is(err, context.DeadlineExceeded) {
					d.DeadlineExceeded = 1
				} else {
					d.Cancelled = 1
				}
				if op.kind == opWrite {
					split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
					s.scratch.split = split[:0]
					for _, r := range split {
						d.InvalidatedBlocks += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count)) // nil-safe
					}
				}
				// Count the drop before replying, so the submitter
				// never reads totals that lack its own op.
				s.mu.Lock()
				s.totals.Cancelled += d.Cancelled
				s.totals.DeadlineExceeded += d.DeadlineExceeded
				if op.kind == opWrite {
					s.totals.InvalidatedBlocks += d.InvalidatedBlocks
					_, dst := s.attributed(op.class)
					for _, a := range dst {
						a.InvalidatedBlocks += d.InvalidatedBlocks
					}
				}
				s.mu.Unlock()
				op.reply <- opResult{stats: d, err: err}
				continue
			}
		}
		live = append(live, op)
	}
	return live
}

// drainDeferred serves the entire DRR backlog immediately — per class
// in sorted class order — forfeiting all credit. Runs ahead of control
// barriers and on close.
func (s *Service) drainDeferred() {
	for _, group := range s.drr.drain() {
		if live := s.dropCancelled(group); len(live) > 0 {
			s.serveChunks(live)
		}
	}
}

// sweepDeferred re-drops backlogged ops whose context died while they
// were deferred, so a deferral never turns into simulated I/O for a
// caller that already gave up.
func (s *Service) sweepDeferred() {
	if s.drr.count == 0 {
		return
	}
	for name, q := range s.drr.pending {
		if len(q) == 0 {
			continue
		}
		kept := s.dropCancelled(q)
		s.drr.count -= len(q) - len(kept)
		s.drr.pending[name] = kept
	}
}

// countUrgent tallies strict-priority service per class.
func (s *Service) countUrgent(ops []*serviceOp) {
	s.mu.Lock()
	for _, op := range ops {
		s.classTot(op.class).UrgentOps++
	}
	s.mu.Unlock()
}

// markDeferred counts ops DRR held back this pass — once per op.
func (s *Service) markDeferred() {
	if s.drr.count == 0 {
		return
	}
	s.mu.Lock()
	for _, q := range s.drr.pending {
		for _, op := range q {
			if !op.deferred {
				op.deferred = true
				s.classTot(op.class).Deferred++
			}
		}
	}
	s.mu.Unlock()
}

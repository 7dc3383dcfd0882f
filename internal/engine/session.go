package engine

import (
	"context"
	"errors"
	"sync"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// ErrClosed is returned by sessions and services once their service has
// been closed (Service.Close, or the volume layers' Close above it).
// Submissions after Close fail fast with this sentinel instead of
// panicking or hanging on the retired loop; test with errors.Is.
var ErrClosed = errors.New("engine: service is closed")

// Runner executes a plan and aggregates its statistics. Two
// implementations exist: OnVolume (the synchronous single-caller path,
// identical to Run) and Session (submission through a volume's
// concurrent Service). The context governs cancellation: a cancelled or
// past-deadline context stops the drain between chunks and returns the
// partial Stats of the work already issued alongside ctx's error.
type Runner interface {
	RunPlan(ctx context.Context, p Plan, opts Options) (Stats, error)
}

// QuerySession is the full session surface a query layer needs from
// one volume's service: plan execution, write submission, and lifetime
// totals. It is the interchange point between the single-volume
// *Session and the shard layer — a scatter-gather session hands out one
// QuerySession per shard, so code written against the interface (the
// update path, cell fetches) runs unchanged whether the dataset lives
// on one volume or on many.
type QuerySession interface {
	Runner
	Write(ctx context.Context, reqs []lvm.Request, policy disk.SchedPolicy) (Stats, error)
	// Flush commits the service's write-back dirty buffer (a no-op with
	// write-back off); see Session.Flush.
	Flush(ctx context.Context) error
	Totals() Stats
}

// volumeRunner adapts the synchronous RunContext to the Runner
// interface.
type volumeRunner struct{ vol *lvm.Volume }

func (r volumeRunner) RunPlan(ctx context.Context, p Plan, opts Options) (Stats, error) {
	return RunContext(ctx, r.vol, p, opts)
}

// OnVolume returns the synchronous Runner for a volume: RunPlan is
// exactly RunContext. Use it only when nothing else touches the volume
// — for concurrent callers, go through a Service and its Sessions.
func OnVolume(vol *lvm.Volume) Runner { return volumeRunner{vol: vol} }

// SessionOptions tunes one session.
type SessionOptions struct {
	// MaxInflight is how many plan chunks the session keeps outstanding
	// in the service at once (minimum and default 1). Even at 1 the
	// planner is pipelined: chunk N+1 is planned while chunk N is on
	// the disks. Values above 1 let one query's chunks share admission
	// batches, trading exact single-stream schedule reproduction for
	// more cross-chunk coalescing.
	MaxInflight int
	// Class is the session's QoS class name (see QoSClass). Every op the
	// session submits is queued, scheduled, cached, and accounted under
	// it. "" is the default class; class names of sessions on one
	// service should be registered via ServiceOptions.Classes when fair
	// sharing is on (unregistered names get weight 1 and no cache
	// reserve).
	Class string
}

// Session is one client's handle on a Service. Sessions are cheap and
// safe for concurrent use; each RunPlan call gets its own Stats, and
// the session accumulates lifetime totals.
type Session struct {
	svc         *Service
	maxInflight int
	class       string

	mu     sync.Mutex
	totals Stats
}

// NewSession opens a client session on the service.
func (s *Service) NewSession(opts SessionOptions) *Session {
	mi := opts.MaxInflight
	if mi < 1 {
		mi = 1
	}
	return &Session{svc: s, maxInflight: mi, class: opts.Class}
}

// Class returns the session's QoS class name ("" for the default
// class).
func (s *Session) Class() string { return s.class }

// Totals returns the session's accumulated statistics across every
// completed RunPlan.
func (s *Session) Totals() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}

// RunPlan drains a plan through the service, planning ahead of the
// disks: a planner goroutine produces the next chunk while earlier
// chunks are in flight, and up to MaxInflight chunks ride the service
// queue at once. Costs attributed by the service loop are folded into
// this query's Stats in chunk order, so a lone session with the cache
// off returns bit-identical Stats to Run. Options.Trace is not
// honoured here — only the synchronous Run traces.
//
// Cancellation: the submit loop checks ctx before every chunk, and the
// service drops this query's already-queued chunks before admission —
// dropped chunks free their inflight slots, charge no simulated I/O,
// and bump Stats.Cancelled/DeadlineExceeded. On any error RunPlan
// returns the partial Stats of the chunks that were served (the same
// partial work is folded into the session's lifetime totals, so
// summing session totals still reproduces ServiceTotals.Attributed for
// issued work).
func (s *Session) RunPlan(ctx context.Context, p Plan, opts Options) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	type planned struct {
		c   Chunk
		ok  bool
		err error
	}
	quit := make(chan struct{})
	defer close(quit)
	planCh := make(chan planned, s.maxInflight)
	go func() {
		defer close(planCh)
		for {
			c, ok, err := p.Next()
			select {
			case planCh <- planned{c: c, ok: ok, err: err}:
				if !ok || err != nil {
					return
				}
			case <-quit:
				return
			}
		}
	}()

	var st Stats
	var pending []*serviceOp
	// credit folds one served chunk's attributed results into the
	// query's Stats — the single copy both the success path and the
	// failure drain use, so the attribution-sum property cannot drift
	// between them. A dropped chunk contributes only its cancellation
	// counter.
	credit := func(op *serviceOp, r opResult) {
		if r.err != nil {
			st.countContextErr(r.err)
			return
		}
		st.AddCompletions(r.comps, r.elapsed)
		st.Padding += op.chunk.Padding
		st.Cells += r.hitCells
		st.CacheHits += r.hits
		st.CacheMisses += r.misses
		if opts.OnChunk != nil {
			// Rebuild the chunk's own delta from its results instead of
			// diffing st, so the query's running totals accumulate in
			// exactly the same order whether streaming is on or off.
			var d Stats
			d.AddCompletions(r.comps, r.elapsed)
			d.Padding = op.chunk.Padding
			d.Cells += r.hitCells
			d.CacheHits = r.hits
			d.CacheMisses = r.misses
			opts.OnChunk(d)
		}
	}
	fold := func(op *serviceOp) error {
		r := <-op.reply
		credit(op, r)
		putOp(op) // reply consumed: this goroutine is the last holder
		return r.err
	}
	// finish folds (or, after a failure, waits out) every outstanding
	// op. Submitted chunks are always drained to their reply: the query
	// must not return while the loop could still serve its chunks.
	// Chunks the loop already served are folded into the session's
	// lifetime totals even when the query fails, so summing session
	// totals still reproduces ServiceTotals.Attributed.
	finish := func(failed error) (Stats, error) {
		var err error
		for _, op := range pending {
			if failed != nil || err != nil {
				credit(op, <-op.reply)
				putOp(op)
				continue
			}
			err = fold(op)
		}
		pending = nil
		if failed == nil {
			failed = err
		}
		s.mu.Lock()
		s.totals.Accumulate(st)
		s.mu.Unlock()
		return st, failed
	}

	for pl := range planCh {
		if pl.err != nil {
			return finish(pl.err)
		}
		if !pl.ok {
			break
		}
		if err := ctx.Err(); err != nil {
			// Stop planning: this chunk was never queued, so it counts
			// here rather than in the service's drop bookkeeping.
			st.countContextErr(err)
			return finish(err)
		}
		policy := pl.c.Policy
		if opts.Policy != nil {
			policy = *opts.Policy
		}
		op := getOp()
		op.kind = opChunk
		op.ctx = ctx
		op.chunk = pl.c
		op.policy = policy
		op.class = s.class
		if err := s.svc.submit(op); err != nil {
			putOp(op) // never queued: submit sends no reply
			return finish(err)
		}
		pending = append(pending, op)
		if len(pending) >= s.maxInflight {
			if err := fold(pending[0]); err != nil {
				pending = pending[1:]
				return finish(err)
			}
			pending = pending[1:]
		}
	}
	return finish(nil)
}

// Write submits one batch of block writes through the service as a
// first-class write op. The service loop invalidates every cached
// extent overlapping the mutated [lbn, lbn+count) ranges before the
// write's simulated I/O is served under the given policy; by the time
// Write returns, no stale extent over those blocks survives, so a
// subsequent read through any session pays the full disk cost. The
// returned Stats carry the write's I/O time with the blocks in Writes
// (not Cells) and the invalidation count in InvalidatedBlocks.
//
// A write whose ctx is cancelled or past its deadline before admission
// is dropped before any simulated I/O is issued or charged — but its
// cache invalidation still happens (the submitter's cell state already
// mutated, so stale extents must not stay readable): the returned
// Stats carry the invalidation count and the matching cancellation
// counter alongside the context error. Writes are therefore always
// submitted, never short-circuited on a pre-cancelled ctx.
func (s *Session) Write(ctx context.Context, reqs []lvm.Request, policy disk.SchedPolicy) (Stats, error) {
	op := getOp()
	op.kind = opWrite
	op.ctx = ctx
	op.chunk = Chunk{Reqs: reqs}
	op.policy = policy
	op.owner = s
	op.class = s.class
	if err := s.svc.submit(op); err != nil {
		putOp(op)
		return Stats{}, err
	}
	r := <-op.reply
	putOp(op)
	var st Stats
	if r.err != nil {
		// A drop before admission carries a context error; a served
		// write that failed carries a volume error, which the classifier
		// ignores.
		st.countContextErr(r.err)
	}
	st.AddWriteCompletions(r.comps, r.elapsed)
	// Write-back absorption acknowledges the op with zero I/O cost: the
	// blocks land in Writes here, at absorb time, and the deferred I/O
	// is credited to the session's lifetime totals when the group commit
	// flushes (see Service.flushDirty).
	st.Writes += r.written
	st.CoalescedWrites = r.coalesced
	st.InvalidatedBlocks = r.invalidated
	st.CowFaultBlocks = r.cowFaults
	// Invalidation sticks even when the write I/O itself failed, so it
	// is folded into the lifetime totals either way (the sum property
	// against ServiceTotals.Attributed holds for failed writes too).
	s.mu.Lock()
	s.totals.Accumulate(st)
	s.mu.Unlock()
	if r.err != nil {
		return st, r.err
	}
	return st, nil
}

// Flush commits the service's write-back dirty buffer as one group
// commit and returns once every previously buffered write — this
// session's and everyone else's — has paid its simulated I/O. A no-op
// with write-back off or nothing dirty. The committed cost lands in
// the contributing sessions' lifetime Totals (not in this call's
// return, which has none); a ctx already dead when the loop reaches
// the op aborts without flushing. Returns ErrClosed after Close.
func (s *Session) Flush(ctx context.Context) error {
	return s.svc.Flush(ctx)
}

// creditFlush folds this session's attributed share of one group
// commit into its lifetime totals. Called from the service loop at
// flush time — the deferred half of a write acknowledged at absorb
// time.
func (s *Session) creditFlush(st Stats) {
	s.mu.Lock()
	s.totals.Accumulate(st)
	s.mu.Unlock()
}

var _ QuerySession = (*Session)(nil)

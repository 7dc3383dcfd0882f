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

// Runner executes a plan and aggregates its statistics. Session is its
// one implementation; the interface is the seam through which a test
// substitutes a fake runner (internal/query's fakeRunner). The context
// governs cancellation: a cancelled or past-deadline context stops the
// drain between chunks and returns the partial Stats of the work
// already issued alongside ctx's error.
type Runner interface {
	RunPlan(ctx context.Context, p Plan, opts Options) (Stats, error)
}

// OnVolume returns a lone session on a new service over vol with every
// option off — the paper's configuration: one caller, no cache, no
// coalescing partner, each chunk served verbatim under its own policy.
// Use it only when nothing else touches the volume; concurrent callers
// share one Service and open their Sessions on it.
func OnVolume(vol *lvm.Volume) *Session {
	return NewService(vol, ServiceOptions{}).NewSession(SessionOptions{})
}

// SessionOptions tunes one session.
type SessionOptions struct {
	// MaxInflight is how many plan chunks the session keeps outstanding
	// in the service at once (minimum and default 1). Even at 1 planning
	// overlaps the disks: chunk N+1 is planned while chunk N is being
	// served. Values above 1 let one query's chunks share admission
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

// RunPlan drains a plan through the service on the calling goroutine:
// plan chunk k, wait for an in-flight slot (the reply to chunk
// k−MaxInflight), check ctx, submit. Chunk k is therefore planned while
// up to MaxInflight earlier chunks are queued or on the disks, and the
// plan is never asked for more than one chunk beyond what is in flight.
// The service loop prices every chunk (see opResult); the query's Stats
// are those prices accumulated in chunk order. A lone session with the
// cache off serves each chunk verbatim, so its Stats are those of
// draining the plan straight through lvm.Volume.ServeBatch — the
// reference kept in run_ref_test.go holds it to that with ==.
//
// Cancellation: ctx is checked before the first chunk is planned and
// before every submission, and the service drops this query's
// already-queued chunks before admission — dropped chunks free their
// inflight slots, charge no simulated I/O, and bump
// Stats.Cancelled/DeadlineExceeded. On any error RunPlan returns the
// partial Stats of the chunks that were served (the same partial work
// is folded into the session's lifetime totals, so summing session
// totals still reproduces ServiceTotals.Attributed for issued work).
func (s *Session) RunPlan(ctx context.Context, p Plan, opts Options) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st Stats
	pending := make([]*serviceOp, 0, s.maxInflight)
	// retire waits for the oldest outstanding chunk's reply and folds the
	// loop's price for it into the query — the one copy the steady state
	// and the failure drain both use. A dropped chunk's price is its
	// cancellation counter; the hook sees served chunks only.
	retire := func() error {
		op := pending[0]
		copy(pending, pending[1:]) // at most MaxInflight-1 pointers; keeps the one backing array
		pending = pending[:len(pending)-1]
		r := <-op.reply
		putOp(op) // reply consumed: this goroutine is the last holder
		st.Accumulate(r.stats)
		if r.err == nil && opts.OnChunk != nil {
			opts.OnChunk(r.stats)
		}
		return r.err
	}
	// finish retires every outstanding chunk — the query must not return
	// while the loop could still serve one — and folds what was served,
	// even by a query that failed, into the session's lifetime totals.
	finish := func(err error) (Stats, error) {
		for len(pending) > 0 {
			if rerr := retire(); err == nil {
				err = rerr
			}
		}
		s.mu.Lock()
		s.totals.Accumulate(st)
		s.mu.Unlock()
		return st, err
	}
	if err := ctx.Err(); err != nil {
		// Dead on arrival: nothing is planned, even for an empty plan.
		st.countContextErr(err)
		return finish(err)
	}
	for {
		c, ok, err := p.Next()
		if err != nil || !ok {
			return finish(err)
		}
		if len(pending) == s.maxInflight {
			if err := retire(); err != nil {
				return finish(err)
			}
		}
		if err := ctx.Err(); err != nil {
			// This chunk is never queued, so it counts here rather than
			// in the service's drop bookkeeping.
			st.countContextErr(err)
			return finish(err)
		}
		op := getOp()
		op.kind = opChunk
		op.ctx = ctx
		op.chunk = c
		op.policy = c.Policy
		if opts.Policy != nil {
			op.policy = *opts.Policy
		}
		op.class = s.class
		if err := s.svc.submit(op); err != nil {
			putOp(op) // never queued: submit sends no reply
			return finish(err)
		}
		pending = append(pending, op)
	}
}

// Write submits one batch of block writes through the service as a
// first-class write op. The service loop invalidates every cached
// extent overlapping the mutated [lbn, lbn+count) ranges before the
// write's simulated I/O is served under the given policy; by the time
// Write returns, no stale extent over those blocks survives, so a
// subsequent read through any session pays the full disk cost. The
// returned Stats are the loop's price for the op: the write's I/O time
// with the blocks in Writes (not Cells) and the invalidation count in
// InvalidatedBlocks. A write the write-back buffer absorbed costs no
// I/O yet — its blocks land in Writes at absorb time, and the deferred
// I/O is credited to the session's lifetime totals when the group
// commit flushes (see Service.flushDirty).
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
	// Invalidation and COW faults stick even when the write I/O itself
	// failed, so the price is folded into the lifetime totals either way
	// (the sum property against ServiceTotals.Attributed holds for failed
	// writes too).
	s.mu.Lock()
	s.totals.Accumulate(r.stats)
	s.mu.Unlock()
	return r.stats, r.err
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

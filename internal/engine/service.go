package engine

// The service loop — LIFECYCLE, and the map of its stages. This file
// holds the Service itself: its options (one normalizer, and Configure,
// the one function that installs them), the submission queue and the
// Flush control op, and loop, the goroutine that owns everything the
// stages touch. The stages a batch passes through, one file each:
//
//	admit.go      what is served now, what waits, what is dropped
//	serve.go      schedule + coherence + simulate: cache, dirty buffer, COW,
//	              disks; mergeScratch.price splits a shared extent's cost
//	              (merged read batch, group commit) among its contributors
//	attribute.go  costs back to sessions through one fold (charge), and
//	              the totals they must sum to
//
// Code here may touch the queue and the running/closed/sealed flags
// (under mu) and, from the loop goroutine or before one exists, the
// loop-owned options and the state Configure derives from them.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/lvm"
)

// Service is the concurrent query service for one logical volume. A
// single service-loop goroutine owns every member disk's mutable head
// state: sessions submit plan chunks over a queue, the loop admits
// everything queued since the last batch as one admission batch, merges
// the batch's requests into a shared SPTF schedule (cross-query
// coalescing), serves it through lvm.Volume.ServeBatch, and attributes
// per-request costs back to the originating sessions so every query
// still gets its own Stats. An optional shared extent cache lets
// overlapping queries skip re-simulated I/O entirely.
//
// A batch of exactly one chunk is served verbatim — same requests, same
// issue policy, no re-coalescing — so a single session with the cache
// off produces Stats bit-identical to draining the plan through
// ServeBatch by hand (refRun in run_ref_test.go) and to the figure
// values pinned in internal/experiments/testdata.
//
// # Ownership
//
// Whoever is the loop goroutine — at most one exists at a time, started
// by the submission that finds none running — is the sole owner of the
// member disks' head state, the extent cache, the write-back dirty
// buffer, the volume's COW fault state, the admission scheduler (class
// registry, backlogs, deficits), the options and the scratch buffers.
// None of it is locked: nothing else reads or writes it. Configure
// fills in the options and what derives from them before the service
// is sealed, so before any op was queued and a loop could exist; Flush
// changes loop-owned state only by queueing a control op the loop
// itself executes. mu guards what other goroutines do touch: the
// submission queue, the running, closed and sealed flags, and the
// totals (ServiceTotals and the per-class ClassTotals) that Totals and
// ClassTotals snapshot. The loop takes mu to swap the queue out and to
// post a batch's folds, and for nothing else.
//
// # Write path and cache coherence
//
// Writes (Session.Write) are first-class service ops, admitted in the
// same batches as reads. The ordering policy is: within one admission
// batch every read chunk is served before the batch's writes, and
// writes then apply in submission order. A write op first invalidates
// every cached extent overlapping its mutated [lbn, lbn+count) ranges
// — the service loop is the only goroutine allowed to touch the extent
// cache, so invalidation needs no further synchronization — and only
// then is the write's I/O served and its cost charged. Because a
// write's submitter does not unblock until after invalidation, any
// read issued after a write completes observes the invalidation; a
// read admitted concurrently with an in-flight write linearizes before
// it and may still be served from pre-write cache state. Writes do not
// populate the cache (invalidate-on-write, not write-allocate).
type Service struct {
	vol *lvm.Volume

	mu      sync.Mutex
	idle    sync.Cond // signalled when running drops to false
	queue   []*serviceOp
	running bool // a loop goroutine exists and owns the disks
	closed  bool
	sealed  bool // the options are fixed: Configure installed some, or an op was queued
	totals  ServiceTotals
	// perClass is the per-QoS-class slice of totals, keyed by class
	// name; guarded by mu like totals.
	perClass map[string]*ClassTotals

	// Loop-owned state (see Ownership above). opts is the normalized
	// configuration; cache, wb (nil when write-back is off) and classes
	// (the QoS class registry) are derived from it by Configure; drr is
	// the admission scheduler's backlog.
	opts    ServiceOptions
	cache   *extentCache
	wb      *dirtySet
	classes map[string]QoSClass
	drr     *drrSched

	// wake (buffered 1) nudges a loop that is idle-waiting on dirty
	// write-back data: submit signals it on every enqueue and Close on
	// shutdown, so neither waits out the whole flush interval.
	wake chan struct{}
	// run is loop as a func value, bound once in NewService: starting
	// the loop with go s.run() allocates no closure per idle→busy edge.
	run func()
	// dirtyTimer is the idle wait's timer, owned by the loop and reset
	// for every wait (nil until the first).
	dirtyTimer *time.Timer

	// scratch and spare are the loop's reusable buffers, owned by the
	// loop goroutine.
	scratch svcScratch
	spare   []*serviceOp // recycled admission-queue backing array
}

// ServiceOptions tunes a service. A service takes them once, before it
// serves: NewService or Configure install the whole struct, and from
// then on they are fixed (see Configure).
type ServiceOptions struct {
	// CacheBlocks is the shared extent cache capacity in blocks;
	// 0 disables the cache.
	CacheBlocks int64
	// FairQuantum enables weighted-fair (deficit-round-robin) admission
	// when positive: each admission pass grants every backlogged QoS
	// class FairQuantum × weight blocks of credit, admits each class's
	// ops FIFO while the credit covers their simulated block cost, and
	// defers the rest to later passes — so one class's burst can no
	// longer monopolize an admission pass. Urgent work (explicit
	// context deadline or Urgent class) keeps strict priority ahead of
	// the weighted shares, as its own batch ordered by effective
	// deadline. 0 (the default) is the same scheduler with one class
	// and unbounded credit: every pass admits in submission order,
	// nothing is deferred, deadlines reorder nothing and the class
	// registry is not consulted — bit-for-bit the pre-QoS behavior.
	// See qos.go for the full contract.
	FairQuantum int64
	// Classes registers the QoS classes (weights, urgency) the fair
	// scheduler uses. Sessions reference classes by SessionOptions.Class;
	// unregistered classes get weight 1.
	Classes []QoSClass
	// WriteBack configures write-back caching with group commit: write
	// ops are absorbed into a dirty buffer instead of being charged
	// immediately, and the buffer is committed as one SPTF batch on
	// watermark, flush interval, read dependency, explicit Flush, or
	// Close. Disabled (the zero value) serves every write immediately —
	// bit-identical to the write-through service. See writeback.go for
	// the full contract.
	WriteBack WriteBackOptions
}

type opKind int

const (
	opChunk opKind = iota
	opWrite
	opFlush
)

// serviceOp is one message to the service loop.
type serviceOp struct {
	kind opKind

	// ctx is the submitting request's context (nil means background):
	// the loop drops a work op whose ctx is done before admission.
	// enqueued and deadline feed the QoS batcher — deadline is ctx's
	// deadline resolved once at submission (zero when none).
	ctx      context.Context
	enqueued time.Time
	deadline time.Time

	// opChunk and opWrite fields; a write op carries its mutated block
	// extents in chunk.Reqs. owner is the submitting session of a write
	// op — the write-back flusher credits the group commit's cost back
	// to it (nil for reads and for raw test submissions). class is the
	// submitting session's QoS class ("" for the default class); the
	// fair scheduler queues and charges the op against it. deferred
	// marks an op DRR has already held back at least one pass, so the
	// Deferred counter counts each op once.
	chunk    Chunk
	owner    *Session
	class    string
	deferred bool

	reply chan opResult
}

// opPool recycles serviceOps so the admission hot path allocates none
// in steady state. An op's reply channel (capacity 1, always drained
// by the reply's recipient before the op is recycled) survives across
// lives; everything else is zeroed on put.
var opPool = sync.Pool{New: func() any {
	return &serviceOp{reply: make(chan opResult, 1)}
}}

// getOp returns a zeroed op with a ready reply channel.
func getOp() *serviceOp { return opPool.Get().(*serviceOp) }

// putOp recycles an op whose reply has been consumed. Only the reply's
// recipient may call it: the service loop never touches an op after
// sending its result, so the recipient is the last holder.
func putOp(op *serviceOp) {
	reply := op.reply
	*op = serviceOp{reply: reply}
	opPool.Put(op)
}

// NewService builds the service for a volume. The caller hands the
// volume's head state to the service: until Close, every ServeBatch
// must go through it. The loop goroutine runs only while work is
// queued — the first submission of a busy period starts it, and it
// exits once the queue drains — so an idle or abandoned service holds
// no goroutine. Non-zero opts are installed by Configure and seal the
// service.
func NewService(vol *lvm.Volume, opts ServiceOptions) *Service {
	s := &Service{
		vol:      vol,
		wake:     make(chan struct{}, 1),
		perClass: make(map[string]*ClassTotals),
		drr:      newDRRSched(),
	}
	s.scratch.touched = make(map[string]bool, 8)
	s.idle.L = &s.mu
	s.run = s.loop
	_ = s.Configure(opts) // cannot fail: a fresh service is neither closed nor sealed
	return s
}

// errSealed is Configure's answer on a service whose options are fixed.
var errSealed = errors.New("engine: service options are fixed once configured or serving")

// Configure installs the service's options: it normalizes them, then
// builds the QoS class registry, the extent cache and the write-back
// dirty buffer. A service takes options once, before it serves. The
// rule, in this order: after Close Configure returns ErrClosed;
// all-zero options install nothing and return nil; a sealed service —
// one that Configure has installed options on, or that has had an op
// queued — returns an error; otherwise the options are installed and
// the service is sealed. No loop can run before the first op is
// queued, so nothing the loop owns is written while one reads it.
func (s *Service) Configure(o ServiceOptions) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return ErrClosed
	case o.zero():
		return nil
	case s.sealed:
		return errSealed
	}
	s.opts = o.normalized()
	s.classes = make(map[string]QoSClass, len(s.opts.Classes))
	for _, c := range s.opts.Classes {
		c.Weight = max(c.Weight, 1) // weights below 1 count as 1
		s.classes[c.Name] = c
	}
	s.cache = newExtentCache(s.opts.CacheBlocks)
	if s.opts.WriteBack.Enabled {
		s.wb = &dirtySet{}
	}
	s.sealed = true
	return nil
}

// zero reports whether o names no option at all.
func (o ServiceOptions) zero() bool {
	return o.CacheBlocks == 0 && o.FairQuantum == 0 &&
		len(o.Classes) == 0 && o.WriteBack == WriteBackOptions{}
}

// normalized returns the options in the one form the loop stores:
// negative knobs are 0 (off), an enabled write-back has its zero knobs
// defaulted, and a fair-share class list names the default class —
// which exists whenever fair sharing is on, so unlabelled sessions are
// a schedulable class of their own.
func (o ServiceOptions) normalized() ServiceOptions {
	o.CacheBlocks = max(o.CacheBlocks, 0)
	o.FairQuantum = max(o.FairQuantum, 0)
	if o.WriteBack.Enabled {
		o.WriteBack = o.WriteBack.withDefaults()
	}
	o.Classes = slices.Clone(o.Classes) // the loop keeps it; the caller's stays theirs
	isDefault := func(c QoSClass) bool { return c.Name == "" }
	if o.FairQuantum > 0 && len(o.Classes) > 0 && !slices.ContainsFunc(o.Classes, isDefault) {
		o.Classes = append(o.Classes, QoSClass{Name: "", Weight: 1})
	}
	return o
}

// Close rejects further submissions and waits for the in-flight batches
// to finish, so the caller regains exclusive use of the volume. A
// write-back service commits its dirty buffer before the loop retires —
// Close is the fifth flush trigger — so no acknowledged write is ever
// lost to shutdown. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.signalWake() // a loop idle-waiting on dirty data must notice closed
	for s.running {
		s.idle.Wait()
	}
}

// Volume returns the volume the service owns — the one NewService was
// given, for life.
func (s *Service) Volume() *lvm.Volume { return s.vol }

// Flush commits the write-back dirty buffer as one group-commit batch
// and returns once every previously buffered write has paid its
// simulated I/O. It is the one control op, a barrier: writes submitted
// before the Flush are absorbed (and therefore committed) first. A ctx
// already cancelled or past its deadline when the loop reaches the op
// returns that error WITHOUT flushing — the dirty data stays buffered
// and commits on a later trigger, never half-flushed. With write-back
// off (or nothing dirty) Flush is a no-op. Returns ErrClosed after
// Close.
func (s *Service) Flush(ctx context.Context) error {
	op := getOp()
	op.kind = opFlush
	op.ctx = ctx
	if err := s.submit(op); err != nil {
		putOp(op)
		return err
	}
	err := (<-op.reply).err
	putOp(op)
	return err
}

// submit enqueues one op, starting a loop goroutine if none is running.
// The op's reply channel (buffer >= 1) receives exactly one result
// unless submit returns an error.
func (s *Service) submit(op *serviceOp) error {
	op.enqueued = time.Now()
	if op.ctx != nil {
		if d, ok := op.ctx.Deadline(); ok {
			op.deadline = d
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.queue = append(s.queue, op)
	s.sealed = true
	if !s.running {
		s.running = true
		go s.run()
	} else {
		s.signalWake() // interrupt an idle-wait on dirty write-back data
	}
	s.mu.Unlock()
	return nil
}

// signalWake posts a non-blocking token on the wake channel (buffer 1,
// so a pending token is enough — the loop re-checks state after every
// wake; a stale token at worst causes one harmless extra pass).
func (s *Service) signalWake() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the service goroutine: it grabs everything queued since the
// last pass as one admission batch, serves it, and exits when the queue
// drains. At most one loop runs at a time (the running flag), so the
// disks have a single owner. The loop never waits to batch: a pass
// admits exactly what was queued when it began.
func (s *Service) loop() {
	for {
		s.mu.Lock()
		batch := s.queue
		s.queue = s.spare // recycled backing array (nil on first pass)
		s.spare = nil
		closed := s.closed
		if len(batch) == 0 {
			s.spare = batch[:0]
			if s.drr.count > 0 {
				// A DRR backlog keeps the loop alive: each extra pass
				// grants fresh per-class credit and admits at least one
				// deferred op, so the backlog drains in bounded passes.
				// After Close nothing new can arrive to share passes
				// with, so the backlog is served out in one drain.
				s.mu.Unlock()
				if closed {
					s.drainDeferred()
				} else {
					s.serveWork(nil)
				}
				continue
			}
			if s.wb != nil && s.wb.blocks > 0 {
				// Dirty write-back data keeps the loop alive: on Close it
				// flushes immediately (trigger five); otherwise it sleeps
				// until the oldest extent's flush interval elapses — or a
				// wake signal delivers new work — and re-checks.
				s.mu.Unlock()
				if !closed {
					if since, ok := s.wb.oldest(); ok {
						if wait := time.Until(since.Add(s.opts.WriteBack.FlushInterval)); wait > 0 {
							s.waitDirty(wait)
							continue
						}
					}
				}
				s.flushDirty()
				continue
			}
			s.running = false
			s.idle.Broadcast()
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.process(batch)
		clear(batch)
		s.spare = batch[:0]
		// A busy service still honors the interval bound: dirty data
		// older than the flush interval commits between admission passes
		// instead of waiting for the queue to drain.
		if s.wb != nil && s.wb.blocks > 0 {
			if since, ok := s.wb.oldest(); ok && !time.Now().Before(since.Add(s.opts.WriteBack.FlushInterval)) {
				s.flushDirty()
			}
		}
	}
}

// waitDirty sleeps until the next flush deadline or a wake signal (a
// new submission, or Close). The loop's one timer serves every wait: a
// wait that ends on a wake stops it and drains a tick that fired
// meanwhile, so the next Reset starts from an empty channel under the
// pre-Go 1.23 timer semantics this module's go directive selects.
func (s *Service) waitDirty(d time.Duration) {
	t := s.dirtyTimer
	if t == nil {
		t = time.NewTimer(d)
		s.dirtyTimer = t
	} else {
		t.Reset(d)
	}
	select {
	case <-s.wake:
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	case <-t.C:
	}
}

// handleFlush serves a Flush op, the one control op.
func (s *Service) handleFlush(op *serviceOp) {
	var err error
	if op.ctx != nil {
		// A dead ctx aborts the flush before it starts: nothing is
		// committed, nothing is charged, and the dirty buffer stays
		// intact for a later trigger — a flush is all-or-nothing.
		err = op.ctx.Err()
	}
	if err == nil {
		err = s.flushDirty()
	}
	op.reply <- opResult{err: err}
}

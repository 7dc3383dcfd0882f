package engine

// The service loop — LIFECYCLE, and the map of its stages. This file
// holds the Service itself: its options (one normalizer, one overlay
// rule, one install step), the submission queue and control ops, and
// loop, the goroutine that owns everything the stages touch. The stages
// a batch passes through, one file each:
//
//	admit.go      what is served now, what waits, what is dropped
//	serve.go      schedule + coherence + simulate: cache, dirty buffer, COW, disks
//	attribute.go  costs back to sessions, and the totals they must sum to
//
// Code here may touch the queue and the running/closed flags (under mu)
// and, from the loop goroutine or before one exists, the loop-owned
// options and the state install derives from them.

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/disk"
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
// ServeBatch by hand (refRun in run_ref_test.go) and to the Fig. 6
// values pinned in cmd/fig6probe/testdata.
//
// # Ownership
//
// Whoever is the loop goroutine — at most one exists at a time, started
// by the submission that finds none running — is the sole owner of the
// member disks' head state, the extent cache, the write-back dirty
// buffer, the volume's COW fault state, the admission scheduler (class
// registry, backlogs, deficits), the options and the scratch buffers.
// None of it is locked: nothing else reads or writes it. NewService
// fills it in before a loop can exist, and Apply, Reset and Flush
// change it only by queueing a control op the loop itself executes.
// mu guards what other goroutines do touch: the submission queue, the
// running and closed flags, and the totals (ServiceTotals and the
// per-class ClassTotals) that Totals and ClassTotals snapshot. The loop
// takes mu to swap the queue out and to post a batch's folds, and for
// nothing else.
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
	totals  ServiceTotals
	// perClass is the per-QoS-class slice of totals, keyed by class
	// name; guarded by mu like totals.
	perClass map[string]*ClassTotals

	// Loop-owned state (see Ownership above). opts is the normalized
	// configuration; cache, wb (nil when write-back is off) and classes
	// (the QoS class registry) are derived from it by install; drr is
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

	// scratch and spare are the loop's reusable buffers, owned by the
	// loop goroutine.
	scratch svcScratch
	spare   []*serviceOp // recycled admission-queue backing array
}

// ServiceOptions tunes a service. NewService takes the whole struct;
// Apply overlays one onto a running service, where a zero field means
// "option omitted" and leaves the current setting alone.
type ServiceOptions struct {
	// CacheBlocks is the shared extent cache capacity in blocks;
	// 0 disables the cache.
	CacheBlocks int64
	// BatchWindow is the time-based admission window: when positive, the
	// loop waits the window out after noticing a non-empty queue before
	// admitting it as a batch, so bursty concurrent clients coalesce
	// into shared batches even when their submissions are microseconds
	// apart. 0 (the default) admits immediately — bit-for-bit today's
	// behavior. The window trades per-op latency for batching: a lone
	// synchronous client pays the full window per chunk with nothing to
	// coalesce against (pipelined sessions overlap the wait with
	// planning), so enable it only for genuinely concurrent workloads.
	// A pass whose queue holds a control op (Reset, Flush, Apply) skips
	// the window, keeping those prompt; a queued request deadline or age
	// cap (DeadlineAging) shortens the wait so the window never delays an
	// urgent request past its deadline.
	BatchWindow time.Duration
	// DeadlineAging enables deadline/QoS-aware admission. When positive,
	// every admission pass classifies its work ops: ops whose context
	// carries a deadline, and ops that have already been queued for at
	// least the aging duration, are urgent — they are served first, as
	// their own admission batch ordered by effective deadline (explicit
	// deadline, or enqueue time + aging for aged ops), ahead of — and
	// never coalesced with — the pass's non-urgent bulk. An old or
	// urgent request therefore bounds how long cross-query coalescing
	// may delay it: at most one batch of similarly urgent peers. 0 (the
	// default) disables classification — every pass admits in submission
	// order, bit-for-bit the pre-QoS behavior.
	DeadlineAging time.Duration
	// FairQuantum enables weighted-fair (deficit-round-robin) admission
	// when positive: each admission pass grants every backlogged QoS
	// class FairQuantum × weight blocks of credit, admits each class's
	// ops FIFO while the credit covers their simulated block cost, and
	// defers the rest to later passes — so one class's burst can no
	// longer monopolize an admission pass. Urgent work (explicit
	// context deadline, Urgent class, or op aged past DeadlineAging)
	// keeps strict priority ahead of the weighted shares. 0 (the
	// default) is the same scheduler with one class and unbounded
	// credit — nothing is deferred and the class registry is not
	// consulted. See qos.go for the full contract.
	FairQuantum int64
	// Classes registers the QoS classes (weights, urgency) the fair
	// scheduler and the class-partitioned extent cache use. Sessions
	// reference classes by SessionOptions.Class; unregistered classes
	// get weight 1 and no cache reserve. The registry is one setting
	// with FairQuantum: Apply replaces it whenever it sets the quantum.
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
	opReset
	opFlush
	opConfigure
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
	policy   disk.SchedPolicy // effective issue policy (session override applied)
	owner    *Session
	class    string
	deferred bool

	// opConfigure field: the options Apply overlays.
	cfg *ServiceOptions

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
// volume's head state to the service: until Close, every ServeBatch and
// Reset must go through it. The loop goroutine runs only while work is
// queued — the first submission of a busy period starts it, and it
// exits once the queue drains — so an idle or abandoned service holds
// no goroutine.
func NewService(vol *lvm.Volume, opts ServiceOptions) *Service {
	s := &Service{
		vol:      vol,
		opts:     opts.normalized(),
		wake:     make(chan struct{}, 1),
		perClass: make(map[string]*ClassTotals),
		drr:      newDRRSched(),
	}
	s.scratch.touched = make(map[string]bool, 8)
	s.install(true)
	s.idle.L = &s.mu
	return s
}

// normalized returns the options in the one form the loop stores:
// negative knobs are 0 (off), an enabled write-back has its zero knobs
// defaulted, and a fair-share class list names the default class —
// which exists whenever fair sharing is on, so unlabelled sessions are
// a schedulable class of their own.
func (o ServiceOptions) normalized() ServiceOptions {
	o.CacheBlocks = max(o.CacheBlocks, 0)
	o.BatchWindow = max(o.BatchWindow, 0)
	o.DeadlineAging = max(o.DeadlineAging, 0)
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

// overlay returns cur with every setting o names replaced — THE
// overlay rule: a zero field of o means "option omitted" and keeps
// cur's. WriteBack is one setting (named by Enabled) and so is
// FairQuantum with its class registry. o must be normalized. Nothing
// can be switched off this way; build a new service for that.
func (cur ServiceOptions) overlay(o ServiceOptions) ServiceOptions {
	if o.CacheBlocks > 0 {
		cur.CacheBlocks = o.CacheBlocks
	}
	if o.BatchWindow > 0 {
		cur.BatchWindow = o.BatchWindow
	}
	if o.DeadlineAging > 0 {
		cur.DeadlineAging = o.DeadlineAging
	}
	if o.WriteBack.Enabled {
		cur.WriteBack = o.WriteBack
	}
	if o.FairQuantum > 0 {
		cur.FairQuantum, cur.Classes = o.FairQuantum, o.Classes
	}
	return cur
}

// install derives the loop-owned state from s.opts: the dirty buffer,
// the class registry (weights below 1 count as 1), and the extent
// cache's per-class reserve shares — with a fresh, empty cache when
// newCache is set. Called from NewService before the loop exists and
// from the loop itself (opConfigure).
func (s *Service) install(newCache bool) {
	if newCache {
		s.cache = newExtentCache(s.opts.CacheBlocks)
	}
	if s.opts.WriteBack.Enabled && s.wb == nil {
		s.wb = &dirtySet{}
	}
	s.classes = make(map[string]QoSClass, len(s.opts.Classes))
	for _, c := range s.opts.Classes {
		c.Weight = max(c.Weight, 1)
		s.classes[c.Name] = c
	}
	s.cache.setShares(cacheShares(s.cache.capacity(), s.opts.FairQuantum, s.classes))
}

// cacheShares computes the extent cache's per-class reserve floors:
// capacity × weight / Σweights over the registered classes. Nil — a
// plain unpartitioned LRU — when fair sharing is off or no classes are
// registered.
func cacheShares(capBlocks, quantum int64, classes map[string]QoSClass) map[string]int64 {
	if quantum <= 0 || len(classes) == 0 || capBlocks <= 0 {
		return nil
	}
	var sum int64
	for _, c := range classes {
		sum += int64(c.Weight)
	}
	shares := make(map[string]int64, len(classes))
	for name, c := range classes {
		shares[name] = capBlocks * int64(c.Weight) / sum
	}
	return shares
}

// Apply reconfigures a running service: every setting o names (see
// ServiceOptions for the overlay rule) replaces the current one, the
// rest stay. It is a control op, so it is serialized with in-flight
// batches and is a scheduling barrier: ops the fair scheduler deferred
// are served first. Setting WriteBack first commits the dirty buffer
// accumulated under the old configuration — whose error, if any, Apply
// returns after reconfiguring all the same. Setting CacheBlocks
// rebuilds the extent cache, dropping its contents; the per-class cache
// reserves are re-derived either way. Returns ErrClosed after Close.
func (s *Service) Apply(o ServiceOptions) error {
	op := getOp()
	op.kind = opConfigure
	op.cfg = &o
	return s.control(op)
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

// Reset restores every member disk to its initial state and clears the
// extent cache and totals, serialized after all in-flight batches.
func (s *Service) Reset() error {
	op := getOp()
	op.kind = opReset
	return s.control(op)
}

// Flush commits the write-back dirty buffer as one group-commit batch
// and returns once every previously buffered write has paid its
// simulated I/O. Like all control ops it is a barrier: writes submitted
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
	return s.control(op)
}

func (s *Service) control(op *serviceOp) error {
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
	if !s.running {
		s.running = true
		go s.loop()
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
// disks have a single owner. A positive admission window makes the loop
// wait it out after noticing pending work, admitting everything that
// arrived meanwhile as one batch — unless a control op is already
// queued, which is admitted promptly.
func (s *Service) loop() {
	for {
		s.mu.Lock()
		if w := s.opts.BatchWindow; w > 0 && len(s.queue) > 0 && !s.queuedControl() {
			// An urgent queued request bounds the wait: never sleep past
			// an explicit context deadline, nor past the point where a
			// queued op's age reaches the QoS aging cap.
			if wake, ok := s.earliestWake(s.opts.DeadlineAging); ok {
				if until := time.Until(wake); until < w {
					w = until
				}
			}
			s.mu.Unlock()
			if w > 0 {
				time.Sleep(w)
			}
			s.mu.Lock()
		}
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
// new submission, or Close).
func (s *Service) waitDirty(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.wake:
	case <-t.C:
	}
}

// queuedControl reports whether the queue holds a control op (caller
// must hold mu).
func (s *Service) queuedControl() bool {
	for _, op := range s.queue {
		if op.kind != opChunk && op.kind != opWrite {
			return true
		}
	}
	return false
}

// earliestWake returns the soonest instant by which the admission
// window should end on behalf of a queued urgent request: the earliest
// explicit context deadline, or the earliest enqueue time plus the
// aging cap when QoS admission is on (caller must hold mu).
func (s *Service) earliestWake(aging time.Duration) (time.Time, bool) {
	var wake time.Time
	ok := false
	consider := func(t time.Time) {
		if !ok || t.Before(wake) {
			wake, ok = t, true
		}
	}
	for _, op := range s.queue {
		if !op.deadline.IsZero() {
			consider(op.deadline)
		}
		if aging > 0 {
			consider(op.enqueued.Add(aging))
		}
	}
	return wake, ok
}

func (s *Service) handleControl(op *serviceOp) {
	var err error
	switch op.kind {
	case opReset:
		s.vol.Reset()
		if s.wb != nil {
			// Reset rewinds the disks to their initial state; buffered
			// writes against the pre-reset state are dropped unflushed
			// (their gauge is zeroed with the totals below).
			s.wb.take()
		}
		s.cache.clear() // nil-safe when the cache is off
		s.mu.Lock()
		s.totals = ServiceTotals{}
		s.perClass = make(map[string]*ClassTotals)
		s.mu.Unlock()
	case opConfigure:
		o := op.cfg.normalized()
		if o.WriteBack.Enabled {
			// Commit under the old write-back configuration first so no
			// buffered write is stranded, then swap the knobs.
			err = s.flushDirty()
		}
		s.opts = s.opts.overlay(o)
		s.install(o.CacheBlocks > 0)
	case opFlush:
		if op.ctx != nil {
			if cerr := op.ctx.Err(); cerr != nil {
				// A dead ctx aborts the flush before it starts: nothing is
				// committed, nothing is charged, and the dirty buffer stays
				// intact for a later trigger — a flush is all-or-nothing.
				err = cerr
				break
			}
		}
		err = s.flushDirty()
	default:
		err = fmt.Errorf("engine: unknown service op %d", op.kind)
	}
	op.reply <- opResult{err: err}
}

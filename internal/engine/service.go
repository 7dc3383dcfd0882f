package engine

import (
	"cmp"
	"context"
	"errors"
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
// off produces bit-identical Stats to calling Run directly.
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
	vol  *lvm.Volume
	opts ServiceOptions

	mu      sync.Mutex
	idle    sync.Cond // signalled when running drops to false
	queue   []*serviceOp
	running bool // a loop goroutine exists and owns the disks
	closed  bool
	cache   *extentCache // owned by the loop; guarded by mu only for reconfiguration
	totals  ServiceTotals
	// perClass is the per-QoS-class slice of totals, keyed by class
	// name; guarded by mu like totals.
	perClass map[string]*ClassTotals

	// classes is the QoS class registry and drr the deficit-round-robin
	// backlog of the weighted-fair admission batcher. Both are owned by
	// the loop goroutine: reconfiguration goes through the opQoSCfg
	// control op, which the loop itself executes.
	classes map[string]QoSClass
	drr     *drrSched

	// wake (buffered 1) nudges a loop that is idle-waiting on dirty
	// write-back data: submit signals it on every enqueue and Close on
	// shutdown, so neither waits out the whole flush interval.
	wake chan struct{}
	// wb is the write-back dirty buffer; nil when write-back is off.
	// Owned by the loop goroutine (reconfigured only via the
	// opWriteBackCfg control op, which the loop itself executes).
	wb *dirtySet

	// scratch and spare are the loop's reusable buffers, owned by the
	// loop goroutine.
	scratch svcScratch
	spare   []*serviceOp // recycled admission-queue backing array
}

// svcScratch is the loop goroutine's reusable buffer set: the
// admission hot path runs allocation-free in steady state by building
// each pass's transient state into these buffers instead of fresh
// per-pass allocations.
type svcScratch struct {
	reads, writes []*serviceOp
	kept          []lvm.Request // planSingle's cache-probe survivor list
	rr, split     []lvm.Request // read-dependency screen buffers
	merge         mergeScratch  // merged-batch plan buffers
	touched       map[string]bool
	flushComp     map[int64]lvm.Completion
}

// ServiceOptions tunes a service.
type ServiceOptions struct {
	// CacheBlocks is the shared extent cache capacity in blocks;
	// 0 disables the cache.
	CacheBlocks int64
	// MaxBatch caps how many chunks one admission batch may merge;
	// 0 means no cap (admit everything queued).
	MaxBatch int
	// BatchWindow is the time-based admission window: when positive, the
	// loop waits the window out after noticing a non-empty queue before
	// admitting it as a batch, so bursty concurrent clients coalesce
	// into shared batches even when their submissions are microseconds
	// apart. 0 (the default) admits immediately — bit-for-bit today's
	// behavior. The window trades per-op latency for batching: a lone
	// synchronous client pays the full window per chunk with nothing to
	// coalesce against (pipelined sessions overlap the wait with
	// planning), so enable it only for genuinely concurrent workloads.
	// A pass whose queue holds a control op (Reset, Close drain, cache
	// reconfiguration) skips the window, keeping those prompt; a queued
	// request deadline or age cap (DeadlineAging) shortens the wait so
	// the window never delays an urgent request past its deadline.
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
	// default) disables DRR — admission is bit-identical to the
	// FairQuantum-less service. See qos.go for the full contract.
	FairQuantum int64
	// Classes registers the QoS classes (weights, urgency) the fair
	// scheduler and the class-partitioned extent cache use. Sessions
	// reference classes by SessionOptions.Class; unregistered classes
	// get weight 1 and no cache reserve.
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

// ServiceTotals is the service loop's own bookkeeping, the ground truth
// the per-session Stats must add up to.
type ServiceTotals struct {
	// Batches counts admission batches served; MergedBatches counts
	// those that coalesced more than one chunk, and MaxBatchChunks is
	// the largest admission batch seen — direct evidence of how many
	// queries were in flight together.
	Batches        int64
	MergedBatches  int64
	MaxBatchChunks int
	// IssuedRequests counts requests actually sent to the disks after
	// cross-query coalescing and cache hits.
	IssuedRequests int64
	// WriteOps counts write ops served (write-through) or absorbed into
	// the write-back buffer; InvalidatedBlocks counts cached blocks
	// their write-aware invalidation dropped (also folded into
	// Attributed.InvalidatedBlocks).
	WriteOps          int64
	InvalidatedBlocks int64
	// FlushBatches counts group commits of the write-back buffer — each
	// flush issues the whole dirty set as one SPTF batch.
	// CoalescedWrites counts write ops absorbed into an already-dirty
	// extent, i.e. writes that will share a group-commit I/O with
	// earlier buffered writes instead of paying their own positioning
	// cost. DirtyBlocks is the current write-back buffer size in blocks
	// — a gauge, not a counter; it returns to 0 after every flush. All
	// three stay zero with write-back off.
	FlushBatches    int64
	CoalescedWrites int64
	DirtyBlocks     int64
	// Cancelled and DeadlineExceeded count queued operations dropped
	// before admission because their context was cancelled or past its
	// deadline. Dropped ops charge no simulated I/O and contribute
	// nothing to Attributed. Each drop is also counted by its
	// submitting session's Stats — but session counters additionally
	// include drops that never reached the queue (a session aborting
	// between planner chunks), so summed session counters are an upper
	// bound on these fields, not an equality.
	Cancelled        int64
	DeadlineExceeded int64
	// Attributed aggregates exactly what was handed back to sessions:
	// summing every session's per-query Stats reproduces these fields
	// (ElapsedMs aside — each chunk of a merged batch observes the full
	// batch's elapsed time, while Attributed counts it once).
	Attributed Stats
}

type opKind int

const (
	opChunk opKind = iota
	opWrite
	opReset
	opCacheCfg
	opFlush
	opWriteBackCfg
	opQoSCfg
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
	trace    func([]lvm.Completion)
	owner    *Session
	class    string
	deferred bool

	// opCacheCfg field.
	cacheBlocks int64
	// opWriteBackCfg field.
	wbCfg WriteBackOptions
	// opQoSCfg fields.
	qosQuantum int64
	qosClasses []QoSClass

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

// opResult is the loop's answer to one chunk: the completions
// attributed to that chunk (synthesized shares when the batch merged
// requests across queries), cache accounting, and the batch's elapsed
// time.
type opResult struct {
	comps       []lvm.Completion
	hits        int64 // requests served whole from the extent cache
	hitCells    int64 // blocks those hits covered
	misses      int64 // requests that reached the disks (cache enabled only)
	invalidated int64 // cached blocks dropped by a write op's invalidation
	written     int64 // blocks absorbed into the write-back buffer
	coalesced   int64 // 1 when the absorbed op coalesced with dirty data
	cowFaults   int64 // blocks faulted out of shared COW extents for this write
	elapsed     float64
	err         error
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
		opts:     opts,
		cache:    newExtentCache(opts.CacheBlocks),
		wake:     make(chan struct{}, 1),
		perClass: make(map[string]*ClassTotals),
		classes:  make(map[string]QoSClass),
		drr:      newDRRSched(),
	}
	if opts.WriteBack.Enabled {
		s.opts.WriteBack = opts.WriteBack.withDefaults()
		s.wb = &dirtySet{}
	}
	s.scratch.touched = make(map[string]bool, 8)
	s.applyQoS(opts.FairQuantum, opts.Classes)
	s.idle.L = &s.mu
	return s
}

// applyQoS installs a fair-share configuration: the quantum (clamped
// to DefaultFairQuantum when enabled with 0), the class registry, and
// the extent cache's per-class reserve shares. Called from NewService
// before the loop exists and from the loop itself (opQoSCfg), so the
// loop-owned registry needs no extra synchronization.
func (s *Service) applyQoS(quantum int64, classes []QoSClass) {
	if quantum < 0 {
		quantum = 0
	}
	if quantum > 0 && len(classes) > 0 {
		// The default class exists whenever fair sharing is on, so
		// unlabelled sessions are a schedulable class of their own.
		if _, ok := hasClass(classes, ""); !ok {
			classes = append(slices.Clone(classes), QoSClass{Name: "", Weight: 1})
		}
	}
	reg := make(map[string]QoSClass, len(classes))
	for _, c := range classes {
		if c.Weight < 1 {
			c.Weight = 1
		}
		reg[c.Name] = c
	}
	s.classes = reg
	s.mu.Lock()
	s.opts.FairQuantum = quantum
	cache := s.cache
	s.mu.Unlock()
	cache.setShares(cacheShares(cache.capacity(), quantum, reg))
}

// hasClass reports whether a class list names a class.
func hasClass(classes []QoSClass, name string) (QoSClass, bool) {
	for _, c := range classes {
		if c.Name == name {
			return c, true
		}
	}
	return QoSClass{}, false
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

// SetFairShare reconfigures weighted-fair admission, serialized with
// in-flight batches: quantum is the DRR credit in blocks per weight
// unit per admission pass (0 turns fair sharing off, negative is
// treated as 0; an enabled zero-ish quantum below 1 uses
// DefaultFairQuantum via the caller passing it explicitly), and
// classes replaces the QoS class registry. The extent cache's
// per-class reserves are recomputed from the same registry. Ops
// already deferred by the old configuration are drained first —
// reconfiguration is a scheduling barrier like every control op.
func (s *Service) SetFairShare(quantum int64, classes []QoSClass) error {
	op := getOp()
	op.kind = opQoSCfg
	op.qosQuantum = quantum
	op.qosClasses = classes
	return s.control(op)
}

// SetBatchWindow reconfigures the admission window (see
// ServiceOptions.BatchWindow); it applies from the loop's next
// admission pass. Negative durations are treated as 0. The mutable
// service options (the window and the aging knob) live in s.opts under
// mu, so there is exactly one copy to read.
func (s *Service) SetBatchWindow(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.opts.BatchWindow = d
	s.mu.Unlock()
}

// SetDeadlineAging reconfigures the deadline/QoS-aware admission knob
// (see ServiceOptions.DeadlineAging); it applies from the loop's next
// admission pass. Negative durations are treated as 0 (QoS off).
func (s *Service) SetDeadlineAging(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	s.opts.DeadlineAging = d
	s.mu.Unlock()
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

// Closed reports whether Close has been called. A closed service may
// still be draining; Close (idempotent) waits for quiescence.
func (s *Service) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Reset restores every member disk to its initial state and clears the
// extent cache and totals, serialized after all in-flight batches.
func (s *Service) Reset() error {
	op := getOp()
	op.kind = opReset
	return s.control(op)
}

// ConfigureCache resizes the shared extent cache (0 disables it),
// dropping its current contents. Serialized with in-flight batches.
func (s *Service) ConfigureCache(blocks int64) error {
	op := getOp()
	op.kind = opCacheCfg
	op.cacheBlocks = blocks
	return s.control(op)
}

// SetWriteBack reconfigures write-back caching, serialized with
// in-flight batches. The dirty buffer accumulated under the old
// configuration is flushed first, so no buffered write is stranded by
// a reconfiguration (including turning write-back off).
func (s *Service) SetWriteBack(cfg WriteBackOptions) error {
	if cfg.Enabled {
		cfg = cfg.withDefaults()
	}
	op := getOp()
	op.kind = opWriteBackCfg
	op.wbCfg = cfg
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

// Totals snapshots the service-loop bookkeeping.
func (s *Service) Totals() ServiceTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
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
		aging := s.opts.DeadlineAging
		wb := s.opts.WriteBack
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
					s.serveWork(nil, aging)
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
						if wait := time.Until(since.Add(wb.FlushInterval)); wait > 0 {
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
		s.process(batch, aging)
		clear(batch)
		s.spare = batch[:0]
		// A busy service still honors the interval bound: dirty data
		// older than the flush interval commits between admission passes
		// instead of waiting for the queue to drain.
		if s.wb != nil && s.wb.blocks > 0 {
			if since, ok := s.wb.oldest(); ok && !time.Now().Before(since.Add(wb.FlushInterval)) {
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

// process serves one admitted batch in submission order: consecutive
// chunk and write ops form admission batches; control ops are
// barriers. A control op also drains the DRR backlog first — ops the
// fair scheduler deferred were submitted before the control op, so
// deferring them past it would reorder work across the barrier.
func (s *Service) process(batch []*serviceOp, aging time.Duration) {
	isWork := func(k opKind) bool { return k == opChunk || k == opWrite }
	for i := 0; i < len(batch); {
		if !isWork(batch[i].kind) {
			s.drainDeferred()
			s.handleControl(batch[i])
			i++
			continue
		}
		j := i
		for j < len(batch) && isWork(batch[j].kind) {
			j++
		}
		s.serveWork(batch[i:j], aging)
		i = j
	}
}

// serveWork admits one run of work ops: ops whose context is already
// cancelled or past its deadline are dropped first — before admission,
// so they are never issued and charge no simulated I/O — then the QoS
// scheduler takes over. With fair sharing off (FairQuantum 0) the
// classifier (when DeadlineAging is on) carves urgent work into its
// own front batch exactly as before; with fair sharing on the ops join
// the per-class DRR backlog and one weighted admission pass runs:
// urgent work first (strict priority, ordered by effective deadline),
// then each backlogged class's granted ops as their own batch, never
// coalescing across classes. MaxBatch caps each served batch's size.
// A nil ops slice runs a pure backlog pass — how the loop drains
// deferred work when the queue is empty.
func (s *Service) serveWork(ops []*serviceOp, aging time.Duration) {
	live := s.dropCancelled(ops)
	s.mu.Lock()
	quantum := s.opts.FairQuantum
	s.mu.Unlock()
	if quantum <= 0 {
		if aging <= 0 {
			// Fast path: the whole pass is one batch in submission order
			// (what qosGroups would return, minus its slice allocation).
			if len(live) > 0 {
				s.serveGroup(live)
			}
			return
		}
		for _, group := range qosGroups(live, aging, time.Now()) {
			s.serveGroup(group)
		}
		return
	}
	s.drr.push(live)
	s.sweepDeferred()
	now := time.Now()
	if urgent := s.drr.takeUrgent(s.classes, aging, now); len(urgent) > 0 {
		sortUrgent(urgent, aging)
		s.countUrgent(urgent)
		s.serveGroup(urgent)
	}
	for _, group := range s.drr.grant(s.classes, quantum) {
		s.serveGroup(group)
	}
	s.markDeferred()
}

// serveGroup serves one scheduler-admitted group in MaxBatch slices.
func (s *Service) serveGroup(group []*serviceOp) {
	for len(group) > 0 {
		k := len(group)
		if m := s.opts.MaxBatch; m > 0 && k > m {
			k = m
		}
		s.serveChunks(group[:k])
		group = group[k:]
	}
}

// drainDeferred serves the entire DRR backlog immediately — per class
// in sorted class order — forfeiting all credit. Runs ahead of control
// barriers and on close.
func (s *Service) drainDeferred() {
	for _, group := range s.drr.drain() {
		s.serveGroup(s.dropCancelled(group))
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

// dropCancelled replies to — and filters out — every op whose context
// is done, counting the drops in the service totals. The reply carries
// the context error and no completions; the submitting session folds
// the drop into its own Cancelled/DeadlineExceeded counters, so the
// two sides agree event for event. A dropped write op still performs
// its cache invalidation: the submitter's cell state already mutated
// by the time the write was queued, so skipping the invalidation would
// leave stale extents readable — the coherence contract survives
// cancellation, only the simulated I/O is never issued or charged.
func (s *Service) dropCancelled(ops []*serviceOp) []*serviceOp {
	var cancelled, expired, invalidated int64
	var perClass map[string]int64 // lazily allocated — drops are rare
	live := ops[:0]
	for _, op := range ops {
		if op.ctx != nil {
			if err := op.ctx.Err(); err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					expired++
				} else {
					cancelled++
				}
				var inv int64
				if op.kind == opWrite {
					split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
					s.scratch.split = split[:0]
					for _, r := range split {
						inv += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count)) // nil-safe
					}
					invalidated += inv
					if perClass == nil {
						perClass = make(map[string]int64, 4)
					}
					perClass[op.class] += inv
				}
				op.reply <- opResult{err: err, invalidated: inv}
				continue
			}
		}
		live = append(live, op)
	}
	if cancelled+expired > 0 {
		s.mu.Lock()
		s.totals.Cancelled += cancelled
		s.totals.DeadlineExceeded += expired
		s.totals.InvalidatedBlocks += invalidated
		s.totals.Attributed.InvalidatedBlocks += invalidated
		for class, inv := range perClass {
			s.classTot(class).Attributed.InvalidatedBlocks += inv
		}
		s.mu.Unlock()
	}
	return live
}

// qosGroups splits one admission pass's live work ops into served
// batches (see ServiceOptions.DeadlineAging). With aging off the whole
// pass is one batch in submission order — the pre-QoS behavior, bit
// for bit. With aging on, urgent ops (isUrgent with no class registry:
// explicit context deadline, or queued at least the aging duration —
// an Urgent-flagged class is inert without fair sharing) form their
// own front batch in sortUrgent order, never coalesced with the
// remaining bulk.
func qosGroups(ops []*serviceOp, aging time.Duration, now time.Time) [][]*serviceOp {
	if len(ops) == 0 {
		return nil
	}
	if aging <= 0 {
		return [][]*serviceOp{ops}
	}
	var urgent, bulk []*serviceOp
	for _, op := range ops {
		if isUrgent(op, nil, aging, now) {
			urgent = append(urgent, op)
		} else {
			bulk = append(bulk, op)
		}
	}
	sortUrgent(urgent, aging)
	var groups [][]*serviceOp
	if len(urgent) > 0 {
		groups = append(groups, urgent)
	}
	if len(bulk) > 0 {
		groups = append(groups, bulk)
	}
	return groups
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
		s.mu.Lock()
		s.cache.clear() // nil-safe when the cache is off
		s.totals = ServiceTotals{}
		s.perClass = make(map[string]*ClassTotals)
		s.mu.Unlock()
	case opCacheCfg:
		s.mu.Lock()
		s.cache = newExtentCache(op.cacheBlocks)
		cache := s.cache
		quantum := s.opts.FairQuantum
		s.mu.Unlock()
		// A resized cache keeps the QoS partition: reapply the class
		// reserve shares at the new capacity.
		cache.setShares(cacheShares(op.cacheBlocks, quantum, s.classes))
	case opQoSCfg:
		s.applyQoS(op.qosQuantum, op.qosClasses)
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
	case opWriteBackCfg:
		// Commit under the old configuration first so no buffered write
		// is stranded, then swap the knobs.
		err = s.flushDirty()
		if op.wbCfg.Enabled && s.wb == nil {
			s.wb = &dirtySet{}
		} else if !op.wbCfg.Enabled {
			s.wb = nil
		}
		s.mu.Lock()
		s.opts.WriteBack = op.wbCfg
		s.mu.Unlock()
	default:
		err = fmt.Errorf("engine: unknown service op %d", op.kind)
	}
	op.reply <- opResult{err: err}
}

// serveChunks services one admission batch of chunk and write ops
// under the documented ordering policy: all read chunks first (merged
// across queries when more than one), then the batch's writes in
// submission order, each invalidating overlapping cached extents
// before its cost is charged. With write-back on, writes are absorbed
// into the dirty buffer instead of served (invalidation still happens
// at absorb time), a read overlapping dirty data forces a flush before
// the reads are served (read-your-write: a read never observes a disk
// state older than an acknowledged write), and reaching the watermark
// flushes after the batch's writes are absorbed.
func (s *Service) serveChunks(items []*serviceOp) {
	reads, writes := s.scratch.reads[:0], s.scratch.writes[:0]
	for _, op := range items {
		if op.kind == opWrite {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	s.scratch.reads, s.scratch.writes = reads, writes
	s.mu.Lock()
	wb := s.opts.WriteBack
	s.mu.Unlock()
	wbOn := wb.Enabled && s.wb != nil
	if wbOn && len(reads) > 0 && len(s.wb.extents) > 0 {
		rr := s.scratch.rr[:0]
		for _, op := range reads {
			rr = append(rr, op.chunk.Reqs...)
		}
		split := s.splitInto(s.scratch.split[:0], rr)
		s.scratch.rr, s.scratch.split = rr[:0], split[:0]
		if s.wb.overlaps(split) {
			s.flushDirty()
		}
	}
	switch {
	case len(reads) == 0:
	case len(reads) == 1:
		s.serveSingle(reads[0])
	default:
		s.serveMerged(reads)
	}
	for _, op := range writes {
		if wbOn {
			s.absorbWrite(op)
		} else {
			s.serveWrite(op)
		}
	}
	if wbOn && s.wb.blocks >= wb.WatermarkBlocks {
		s.flushDirty()
	}
}

// splitInto clips extents at member-disk segment boundaries, appending
// the pieces to out (loop scratch on the hot path): a request must stay
// within one disk (the same invariant the read coalescer enforces), but
// write submitters coalesce the blocks a mutation dirties by plain VLBN
// adjacency, and an overflow extent ending exactly at one disk's tail
// can sit adjacent to the next disk's first block. Out-of-range
// addresses pass through unchanged so ServeBatch surfaces the error to
// the submitter.
func (s *Service) splitInto(out []lvm.Request, reqs []lvm.Request) []lvm.Request {
	for _, r := range reqs {
		for {
			di, lbn, err := s.vol.Locate(r.VLBN)
			if err != nil {
				out = append(out, r)
				break
			}
			room := s.vol.DiskBlocks(di) - lbn
			if int64(r.Count) <= room {
				out = append(out, r)
				break
			}
			out = append(out, lvm.Request{VLBN: r.VLBN, Count: int(room)})
			r.VLBN += room
			r.Count -= int(room)
		}
	}
	return out
}

// cowFault serves the copy-on-write fault set of one write op: the
// track-granule spans of its target blocks still mapped to shared
// frozen extents (a snapshotted parent's, or the parent extents under a
// clone) are read at their current shared location — the simulated
// copy-out — and then remapped onto privately allocated extents, so the
// write I/O that follows lands in storage this volume owns. The fault
// read's completions and elapsed time are folded into the op's result,
// so its cost is attributed to the writing session exactly like the
// write itself; the faulted block count lands in CowFaultBlocks.
// Returns the number of fault requests issued. A volume with no COW
// segments detects the no-op with one atomic load.
//
// Ordering matters: callers must re-derive segment boundaries
// (splitInto) AFTER a successful fault, because resolving
// splits segments and renumbers their indices.
func (s *Service) cowFault(op *serviceOp, res *opResult) (int, error) {
	spans := s.vol.CowSpans(op.chunk.Reqs)
	if len(spans) == 0 {
		return 0, nil
	}
	comps, elapsed, err := s.vol.ServeBatch(spans, op.policy)
	if err != nil {
		return 0, err
	}
	if err := s.vol.ResolveCOW(spans); err != nil {
		return 0, err
	}
	res.comps = append(res.comps, comps...)
	res.elapsed += elapsed
	for _, sp := range spans {
		res.cowFaults += int64(sp.Count)
	}
	return len(spans), nil
}

// failWrite replies to a write op that failed before any I/O beyond its
// COW fault could be charged, keeping the already-performed fault and
// invalidation visible in the bookkeeping and the reply so the
// session's totals still sum to Attributed.
func (s *Service) failWrite(op *serviceOp, res opResult, faultReqs int, err error) {
	s.mu.Lock()
	t := &s.totals
	t.WriteOps++
	t.InvalidatedBlocks += res.invalidated
	t.IssuedRequests += int64(faultReqs)
	t.Attributed.AddWriteCompletions(res.comps, res.elapsed)
	t.Attributed.InvalidatedBlocks += res.invalidated
	t.Attributed.CowFaultBlocks += res.cowFaults
	ct := s.classTot(op.class)
	ct.Ops++
	ct.Attributed.AddWriteCompletions(res.comps, res.elapsed)
	ct.Attributed.InvalidatedBlocks += res.invalidated
	ct.Attributed.CowFaultBlocks += res.cowFaults
	s.mu.Unlock()
	res.err = err
	op.reply <- res
}

// serveWrite applies one write op: fault any copy-on-write target
// tracks into private extents, invalidate every cached extent
// overlapping the mutated ranges, then serve the write I/O and charge
// its cost to the submitting session. Writes never populate the cache.
// Extents crossing a segment boundary are split here — after the COW
// resolve, whose segment splits move the boundaries — so Write's
// contract needs no per-disk precondition from its callers.
func (s *Service) serveWrite(op *serviceOp) {
	var res opResult
	faultReqs, err := s.cowFault(op, &res)
	if err != nil {
		s.failWrite(op, opResult{}, 0, err)
		return
	}
	// The split result lives only until the reply below (nothing reads
	// chunk.Reqs after a write is answered), so loop scratch is safe.
	split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = split[:0]
	op.chunk.Reqs = split
	for _, r := range op.chunk.Reqs {
		// invalidate is nil-safe when the cache is off.
		res.invalidated += s.cache.invalidate(r.VLBN, r.VLBN+int64(r.Count))
	}
	if len(op.chunk.Reqs) > 0 {
		comps, elapsed, err := s.vol.ServeBatch(op.chunk.Reqs, op.policy)
		if err != nil {
			// The fault and invalidation already happened and stay
			// visible to later reads, so they must stay visible in the
			// bookkeeping too — and in the reply, so the session's
			// totals match.
			s.failWrite(op, res, faultReqs, err)
			return
		}
		res.comps = append(res.comps, comps...)
		res.elapsed += elapsed
	}
	s.mu.Lock()
	t := &s.totals
	t.WriteOps++
	t.InvalidatedBlocks += res.invalidated
	t.IssuedRequests += int64(len(op.chunk.Reqs) + faultReqs)
	t.Attributed.AddWriteCompletions(res.comps, res.elapsed)
	t.Attributed.InvalidatedBlocks += res.invalidated
	t.Attributed.CowFaultBlocks += res.cowFaults
	ct := s.classTot(op.class)
	ct.Ops++
	ct.Attributed.AddWriteCompletions(res.comps, res.elapsed)
	ct.Attributed.InvalidatedBlocks += res.invalidated
	ct.Attributed.CowFaultBlocks += res.cowFaults
	s.mu.Unlock()
	if op.trace != nil && len(res.comps) > 0 {
		op.trace(res.comps)
	}
	op.reply <- res
}

// absorbWrite buffers one write op in the write-back dirty set instead
// of serving it: the submitter is acknowledged immediately with zero
// I/O cost (its blocks in Writes, its invalidation count, and the
// coalesced flag when the op merged into already-dirty data), and the
// simulated I/O is deferred to the next group commit. Cache coherence
// is NOT deferred — every cached extent overlapping the mutated blocks
// is invalidated here, exactly as on the write-through path. Extents
// whose addresses fall outside the volume are routed to the immediate
// write path instead, so address errors surface to the submitter
// synchronously rather than at some later flush. COW coherence is not
// deferred either: target tracks still mapped to shared frozen extents
// are faulted into private storage here, before absorption — the
// address screen runs first (VLBN validity is unaffected by the
// resolve), so the serveWrite fallback never double-charges a fault —
// and the absorbed extents therefore only ever cover private segments,
// which are never re-split, keeping their recorded flush boundaries
// valid at group-commit time.
func (s *Service) absorbWrite(op *serviceOp) {
	screen := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = screen[:0]
	for _, r := range screen {
		if _, _, err := s.vol.Locate(r.VLBN); err != nil {
			s.serveWrite(op)
			return
		}
	}
	var res opResult
	faultReqs, err := s.cowFault(op, &res)
	if err != nil {
		s.failWrite(op, opResult{}, 0, err)
		return
	}
	// Split after the resolve: it may have split segments under the
	// target blocks, moving the boundaries the dirty buffer records.
	// Scratch-backed like serveWrite's split: dead once the op replies.
	split := s.splitInto(s.scratch.split[:0], op.chunk.Reqs)
	s.scratch.split = split[:0]
	op.chunk.Reqs = split
	now := time.Now()
	for _, r := range op.chunk.Reqs {
		start, end := r.VLBN, r.VLBN+int64(r.Count)
		res.invalidated += s.cache.invalidate(start, end) // nil-safe
		di, lbn, _ := s.vol.Locate(start)
		boundary := start - lbn + s.vol.DiskBlocks(di)
		if s.wb.absorb(op.owner, start, end, boundary, now) {
			res.coalesced = 1
		}
		res.written += int64(r.Count)
	}
	s.mu.Lock()
	t := &s.totals
	t.WriteOps++
	t.CoalescedWrites += res.coalesced
	t.InvalidatedBlocks += res.invalidated
	t.IssuedRequests += int64(faultReqs)
	t.DirtyBlocks = s.wb.blocks
	t.Attributed.AddWriteCompletions(res.comps, res.elapsed)
	t.Attributed.Writes += res.written
	t.Attributed.InvalidatedBlocks += res.invalidated
	t.Attributed.CoalescedWrites += res.coalesced
	t.Attributed.CowFaultBlocks += res.cowFaults
	ct := s.classTot(op.class)
	ct.Ops++
	ct.Attributed.AddWriteCompletions(res.comps, res.elapsed)
	ct.Attributed.Writes += res.written
	ct.Attributed.InvalidatedBlocks += res.invalidated
	ct.Attributed.CoalescedWrites += res.coalesced
	ct.Attributed.CowFaultBlocks += res.cowFaults
	s.mu.Unlock()
	op.reply <- res
}

// flushDirty group-commits the entire dirty buffer as one SPTF batch —
// the write-back payoff: every buffered write shares one head
// trajectory instead of paying its own positioning cost. The batch's
// per-extent costs are split among the sessions whose buffered writes
// dirtied the extent, in proportion to the blocks each asked for (the
// same split serveMerged applies to shared read extents), and folded
// into both the sessions' lifetime Totals and Attributed — so summing
// session totals still reproduces Attributed after a flush. Each
// contributing session observes the full batch ElapsedMs and counts
// one FlushBatches (Attributed.FlushBatches grows by the number of
// contributors to keep the sum exact; the top-level
// ServiceTotals.FlushBatches counts actual batches). A flush of an
// empty buffer is free.
func (s *Service) flushDirty() error {
	if s.wb == nil || len(s.wb.extents) == 0 {
		return nil
	}
	extents := s.wb.take()
	reqs := make([]lvm.Request, len(extents))
	for i, e := range extents {
		reqs[i] = lvm.Request{VLBN: e.start, Count: int(e.end - e.start)}
	}
	comps, elapsed, err := s.vol.ServeBatch(reqs, disk.SchedSPTF)
	if err != nil {
		// Unreachable in practice: absorbWrite screens out every address
		// ServeBatch can reject. Coherence survives regardless (the
		// invalidation happened at absorb); only the gauge is corrected.
		s.mu.Lock()
		s.totals.DirtyBlocks = 0
		s.mu.Unlock()
		return err
	}
	// Extents are disjoint, so completions map back by start VLBN.
	compAt := s.scratch.flushComp
	if compAt == nil {
		compAt = make(map[int64]lvm.Completion, len(comps))
		s.scratch.flushComp = compAt
	} else {
		clear(compAt)
	}
	for _, c := range comps {
		compAt[c.Req.VLBN] = c
	}
	perOwner := make(map[*Session]*Stats)
	for i, e := range extents {
		c := compAt[reqs[i].VLBN]
		var asked int64
		for _, n := range e.contribs {
			asked += n
		}
		for owner, n := range e.contribs {
			f := float64(n) / float64(asked)
			st := perOwner[owner]
			if st == nil {
				st = &Stats{}
				perOwner[owner] = st
			}
			st.AddFlushCompletions([]lvm.Completion{{
				Req:     lvm.Request{VLBN: e.start, Count: int(n)},
				DiskIdx: c.DiskIdx,
				Cost: disk.AccessCost{
					CommandMs:  c.Cost.CommandMs * f,
					SeekMs:     c.Cost.SeekMs * f,
					RotateMs:   c.Cost.RotateMs * f,
					TransferMs: c.Cost.TransferMs * f,
				},
				FinishMs: c.FinishMs,
			}}, 0)
		}
	}
	s.mu.Lock()
	t := &s.totals
	t.FlushBatches++
	t.IssuedRequests += int64(len(reqs))
	t.DirtyBlocks = 0
	touched := s.scratch.touched
	clear(touched)
	for owner, st := range perOwner {
		st.FlushBatches = 1
		t.Attributed.Accumulate(*st)
		class := ""
		if owner != nil {
			class = owner.class
		}
		s.classTot(class).Attributed.Accumulate(*st)
		touched[class] = true
	}
	t.Attributed.ElapsedMs += elapsed
	for class := range touched {
		s.classTot(class).Attributed.ElapsedMs += elapsed
	}
	s.mu.Unlock()
	for owner, st := range perOwner {
		st.ElapsedMs = elapsed
		if owner != nil {
			owner.creditFlush(*st)
		}
	}
	return nil
}

// planSingle is a lone chunk's schedule stage: probe the cache,
// folding hits into res, and return the requests that must reach the
// disks. With the cache off the chunk's own request slice is returned
// untouched; otherwise the survivors are collected in the loop's probe
// buffer, valid until the next plan.
func (s *Service) planSingle(op *serviceOp, res *opResult) []lvm.Request {
	if s.cache == nil {
		return op.chunk.Reqs
	}
	kept := s.scratch.kept[:0]
	for _, r := range op.chunk.Reqs {
		if s.cache.covered(r.VLBN, r.VLBN+int64(r.Count)) {
			res.hits++
			res.hitCells += int64(r.Count)
			continue
		}
		res.misses++
		kept = append(kept, r)
	}
	s.scratch.kept = kept[:0] // keep the grown probe buffer
	return kept
}

// finishSingle is a lone chunk's completion stage: insert the served
// extents into the cache, account, trace, reply. issued is the number
// of requests that reached the disks (the plan's survivors).
func (s *Service) finishSingle(op *serviceOp, res opResult, issued int, comps []lvm.Completion, elapsed float64) {
	if issued > 0 {
		res.comps, res.elapsed = comps, elapsed
		for _, c := range comps {
			s.cache.insertFor(c.Req.VLBN, c.Req.VLBN+int64(c.Req.Count), op.class) // nil-safe
		}
	}
	s.account1(op, &res, int64(issued), res.elapsed)
	if op.trace != nil && len(res.comps) > 0 {
		op.trace(res.comps)
	}
	op.reply <- res
}

// serveSingle services a lone chunk exactly as Run would: the planner's
// requests, the chunk's policy, no re-coalescing. With the cache off
// this path is bit-identical to the synchronous engine.
func (s *Service) serveSingle(op *serviceOp) {
	var res opResult
	reqs := s.planSingle(op, &res)
	if len(reqs) > 0 {
		comps, elapsed, err := s.vol.ServeBatch(reqs, op.policy)
		if err != nil {
			op.reply <- opResult{err: err}
			return
		}
		s.finishSingle(op, res, len(reqs), comps, elapsed)
		return
	}
	s.finishSingle(op, res, 0, nil, 0)
}

// mergeEntry ties one item's request to its slot in a merged plan.
type mergeEntry struct {
	item int
	req  lvm.Request
}

// mergeScratch is the buffer set a merged plan builds into; the loop
// owns one (svcScratch.merge) and reuses it across batches.
type mergeScratch struct {
	entries []mergeEntry
	reqs    []lvm.Request // the coalesced extents to issue
	// members[k] lists the entry indices merged into extent reqs[k].
	members [][]int
	results []opResult
	compAt  map[int64]lvm.Completion
}

// reset readies the scratch for a plan over n items, reusing every
// backing allocation from earlier plans.
func (sc *mergeScratch) reset(n int) {
	sc.entries = sc.entries[:0]
	sc.reqs = sc.reqs[:0]
	sc.members = sc.members[:0]
	if cap(sc.results) < n {
		sc.results = make([]opResult, n)
	} else {
		sc.results = sc.results[:n]
		clear(sc.results)
	}
}

// pushMember opens extent slot k = len(members) holding one entry
// index, reusing the retained inner slice when one exists.
func (sc *mergeScratch) pushMember(idx int) {
	if n := len(sc.members); n < cap(sc.members) {
		sc.members = sc.members[:n+1]
		sc.members[n] = append(sc.members[n][:0], idx)
		return
	}
	sc.members = append(sc.members, []int{idx})
}

// failAll replies the error to every item of a merged batch.
func failAll(items []*serviceOp, err error) {
	for _, it := range items {
		it.reply <- opResult{err: err}
	}
}

// planMerged is a multi-chunk batch's schedule stage: probe the cache
// per request, coalesce the survivors across queries into shared
// extents (merging overlap and exact adjacency, never across a
// disk-segment boundary), and pick the batch policy — the chunks'
// unanimous policy, or SPTF when the batch mixes policies (cross-query
// order is the drive's to choose). The coalesced extents and per-item
// results are left in the loop's merge scratch for finishMerged.
// Returns ok=false after replying the error to every item when an
// extent fails to locate.
func (s *Service) planMerged(items []*serviceOp) (policy disk.SchedPolicy, ok bool) {
	sc := &s.scratch.merge
	sc.reset(len(items))
	for i, it := range items {
		for _, r := range it.chunk.Reqs {
			if s.cache != nil {
				if s.cache.covered(r.VLBN, r.VLBN+int64(r.Count)) {
					sc.results[i].hits++
					sc.results[i].hitCells += int64(r.Count)
					continue
				}
				sc.results[i].misses++
			}
			sc.entries = append(sc.entries, mergeEntry{item: i, req: r})
		}
	}
	if len(sc.entries) == 0 {
		return items[0].policy, true
	}
	slices.SortStableFunc(sc.entries, func(a, b mergeEntry) int {
		switch {
		case a.req.VLBN != b.req.VLBN:
			if a.req.VLBN < b.req.VLBN {
				return -1
			}
			return 1
		default:
			return a.req.Count - b.req.Count
		}
	})
	var boundary int64 // end VLBN of the current extent's disk segment
	for idx, e := range sc.entries {
		start := e.req.VLBN
		end := start + int64(e.req.Count)
		if n := len(sc.reqs); n > 0 {
			last := &sc.reqs[n-1]
			lastEnd := last.VLBN + int64(last.Count)
			// Merge overlap or exact adjacency, but never across a
			// disk-segment boundary: each original request lies in one
			// segment, so extents clipped to the boundary stay valid.
			if start <= lastEnd && start < boundary {
				if end > lastEnd {
					last.Count = int(end - last.VLBN)
				}
				sc.members[n-1] = append(sc.members[n-1], idx)
				continue
			}
		}
		di, lbn, err := s.vol.Locate(start)
		if err != nil {
			failAll(items, err)
			return policy, false
		}
		boundary = start - lbn + s.vol.DiskBlocks(di)
		sc.reqs = append(sc.reqs, lvm.Request{VLBN: start, Count: e.req.Count})
		sc.pushMember(idx)
	}
	policy = items[0].policy
	for _, it := range items[1:] {
		if it.policy != policy {
			return disk.SchedSPTF, true
		}
	}
	return policy, true
}

// finishMerged is a merged batch's completion stage: map each served
// extent's completion back to its contributors, splitting its cost in
// proportion to the blocks each asked for (blocks wanted by several
// queries are read once; every query is still credited its own cells),
// insert the extents into the cache, account, trace, reply.
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
			if len(sc.members[k]) == 1 {
				e := sc.entries[sc.members[k][0]]
				sc.results[e.item].comps = append(sc.results[e.item].comps, c)
				continue
			}
			var owned int64
			for _, mi := range sc.members[k] {
				owned += int64(sc.entries[mi].req.Count)
			}
			for _, mi := range sc.members[k] {
				e := sc.entries[mi]
				f := float64(e.req.Count) / float64(owned)
				sc.results[e.item].comps = append(sc.results[e.item].comps, lvm.Completion{
					Req:     e.req,
					DiskIdx: c.DiskIdx,
					Cost: disk.AccessCost{
						CommandMs:  c.Cost.CommandMs * f,
						SeekMs:     c.Cost.SeekMs * f,
						RotateMs:   c.Cost.RotateMs * f,
						TransferMs: c.Cost.TransferMs * f,
					},
					FinishMs: c.FinishMs,
				})
			}
		}
	}
	for i := range sc.results {
		sc.results[i].elapsed = elapsed
	}
	s.account(items, sc.results, int64(len(sc.reqs)), elapsed)
	for i, it := range items {
		if it.trace != nil && len(sc.results[i].comps) > 0 {
			it.trace(sc.results[i].comps)
		}
		it.reply <- sc.results[i]
	}
}

// serveMerged coalesces the batch's requests across queries into shared
// extents, serves them as one batch, and splits each served extent's
// cost among its contributors.
func (s *Service) serveMerged(items []*serviceOp) {
	policy, ok := s.planMerged(items)
	if !ok {
		return
	}
	var comps []lvm.Completion
	var elapsed float64
	if reqs := s.scratch.merge.reqs; len(reqs) > 0 {
		var err error
		comps, elapsed, err = s.vol.ServeBatch(reqs, policy)
		if err != nil {
			failAll(items, err)
			return
		}
	}
	s.finishMerged(items, comps, elapsed)
}

// account folds one served admission batch into the service totals,
// mirroring exactly the folds the sessions will perform.
func (s *Service) account(items []*serviceOp, results []opResult, issued int64, elapsed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.totals
	t.Batches++
	if len(items) > 1 {
		t.MergedBatches++
	}
	if len(items) > t.MaxBatchChunks {
		t.MaxBatchChunks = len(items)
	}
	t.IssuedRequests += issued
	touched := s.scratch.touched
	clear(touched)
	for i, it := range items {
		r := &results[i]
		t.Attributed.AddCompletions(r.comps, 0)
		t.Attributed.Padding += it.chunk.Padding
		t.Attributed.Cells += r.hitCells
		t.Attributed.CacheHits += r.hits
		t.Attributed.CacheMisses += r.misses
		ct := s.classTot(it.class)
		ct.Ops++
		ct.Attributed.AddCompletions(r.comps, 0)
		ct.Attributed.Padding += it.chunk.Padding
		ct.Attributed.Cells += r.hitCells
		ct.Attributed.CacheHits += r.hits
		ct.Attributed.CacheMisses += r.misses
		touched[it.class] = true
	}
	t.Attributed.ElapsedMs += elapsed
	// A shared batch's elapsed time is observed once per contributing
	// class — like sessions, summed class ElapsedMs is not additive.
	for class := range touched {
		s.classTot(class).Attributed.ElapsedMs += elapsed
	}
}

// account1 is account for a single-chunk batch — the same folds
// without the per-item loop's slice and map traffic.
func (s *Service) account1(op *serviceOp, r *opResult, issued int64, elapsed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.totals
	t.Batches++
	if t.MaxBatchChunks < 1 {
		t.MaxBatchChunks = 1
	}
	t.IssuedRequests += issued
	t.Attributed.AddCompletions(r.comps, 0)
	t.Attributed.Padding += op.chunk.Padding
	t.Attributed.Cells += r.hitCells
	t.Attributed.CacheHits += r.hits
	t.Attributed.CacheMisses += r.misses
	ct := s.classTot(op.class)
	ct.Ops++
	ct.Attributed.AddCompletions(r.comps, 0)
	ct.Attributed.Padding += op.chunk.Padding
	ct.Attributed.Cells += r.hitCells
	ct.Attributed.CacheHits += r.hits
	ct.Attributed.CacheMisses += r.misses
	t.Attributed.ElapsedMs += elapsed
	ct.Attributed.ElapsedMs += elapsed
}

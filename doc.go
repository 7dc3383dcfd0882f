// Package multimap is a full reproduction of "MultiMap: Preserving disk
// locality for multidimensional datasets" (Shao, Schlosser,
// Papadomanolakis, Schindler, Ailamaki, Ganger; ICDE 2007).
//
// MultiMap places an N-dimensional grid of cells on disk so that the
// first dimension streams at full sequential bandwidth while every
// other dimension follows chains of adjacent blocks — blocks on nearby
// tracks positioned so they can be read right after the head settles,
// with no rotational latency (semi-sequential access).
//
// Because the adjacency model requires drive-internal information that
// modern storage no longer exposes, this package ships a detailed disk
// simulator calibrated to the paper's two drives (Maxtor Atlas 10k III,
// Seagate Cheetah 36ES), a logical volume manager exporting the paper's
// GetAdjacent/GetTrackBoundaries interface, the MultiMap mapping
// algorithm and the three linear mappings it is compared against
// (Naive, Z-order, Hilbert — plus Gray-code), a storage manager with
// the paper's query execution strategies, the three evaluation
// datasets, an analytical cost model, and drivers regenerating every
// figure in the paper's evaluation.
//
// # Execution engine
//
// Every query layer executes through one shared pipeline
// (internal/engine): plan → dispatch → schedule → aggregate. A planner
// — the storage manager (internal/query), the octree and OLAP dataset
// stores, or a tool with a prepared batch — produces a stream of
// request chunks, each tagged with the issue policy the paper's
// storage manager would choose (§5.2). The engine dispatches chunks to
// the logical volume, whose member disks service their sub-batches
// concurrently (one goroutine per drive); each drive applies its
// internal scheduler — a shortest-positioning-time (SPTF) scheduler
// that sorts each window once into a slab in which cylinders and
// tracks are index ranges, picks by a pruned search outward from the
// heads and breaks every tie by a stated rule (or plain arrival order
// under the FIFO policy) — and the engine prices each chunk once, as a
// Stats, and a query's Stats is the sum of its chunks'.
// The storage manager's planner streams: a query box is sliced along
// its slowest dimension into bounded sub-boxes, so huge ranges never
// materialize every block at once. Every layout expands a sub-box into
// its ascending, coalesced extents itself (mapping.Mapper.BoxRequests),
// with no lookup per cell, and the planner adds only the issue policy.
// Naive's extents are runs of whole lower-dimension slabs, computed
// directly. MultiMap steps the sub-box's Dim0 rows through its basic
// cubes — a row is a chain head plus offset arithmetic, wrapping at the
// track end — into one slice, sorted once only when the rows did not
// come out ascending. On the Z-order, Hilbert and Gray layouts the
// planner walks the curve's own hierarchy (internal/sfc): an aligned
// block of the key space is one contiguous key interval, so a box costs
// a few intervals per unit of its surface rather than a key per cell,
// and the same walk over the whole grid yields the runs of in-grid keys
// that pack a non-power-of-two grid densely (§5.2). The WithPolicy and
// WithChunkCells open options expose the scheduler and chunking knobs;
// cmd/mmbench mirrors them as -policy and -chunk. The concurrent service of the
// next section runs the same pipeline one admission batch at a time,
// and its four stages are one file each in internal/engine: service.go
// (lifecycle, options, the loop goroutine that owns everything below),
// admit.go (what is served now, what waits, what is dropped), serve.go
// (schedule + coherence + simulate: cache, dirty buffer, COW, disks)
// and attribute.go (costs back to sessions and the totals they sum
// to); each opens with what it may touch.
//
// # Concurrent query service
//
// All simulated head state lives behind a per-volume service loop
// goroutine (running only while queries are in flight): stores and
// their Sessions submit plan chunks to it over a queue, so any number
// of goroutines may query one volume at once. The loop admits everything queued
// since its last pass as one admission batch, coalesces requests
// across the in-flight queries into shared SPTF extents (blocks wanted
// by several queries are read once), and prices each op once, as a
// Stats — a shared extent's cost split in proportion to the blocks each
// query asked for. The loop folds that value into its totals and
// answers the session with it, and the session accumulates the same
// value: every query keeps its own Stats, and their sum reproduces the
// service's totals (Volume.ServiceTotals) by construction.
// A batch holding a single chunk is served verbatim, so one session
// with the cache off is the paper's own storage manager, and it is the
// one runner: the paper's figures run as a lone session on a fresh
// service (cmd/fig6probe's golden test pins their values). An optional
// shared extent cache — an LRU over coalesced [lbn, lbn+count) block
// extents — lets overlapping queries skip re-simulated I/O entirely,
// with hits and misses surfaced in Stats. The extents live in one
// arena and name each other by index; they sit in a chunked sorted
// array (sorted leaves of at most 256 entries, binary search over the
// leaves' first keys, then inside one leaf; leaves split when full and
// merge when two neighbours fit in half a leaf) and in an intrusive LRU
// list, so with n extents cached a probe costs O(log n) and an insert,
// invalidation or eviction O(log n) plus a shift inside one leaf — no
// operation walks or copies the population, a cached extent costs no
// allocation, and the garbage collector has nothing to scan. Store.Begin
// opens sessions; WithCache and WithMaxInflight (chunks a session keeps
// in flight; a query plans on the goroutine that runs it, one chunk
// ahead of what is in flight, so planning overlaps service either way)
// are the knobs, mirrored by cmd/mmbench as -cache and the -clients/-queries
// throughput mode (-exp serve). Volume.Reset is serialized through the
// loop and safe under live traffic.
//
// # Write path and cache coherence
//
// Updates (§4.6: Insert, Delete, LoadCell on a store opened with the
// Updatable option) are
// first-class write operations on the same service. The cell store
// computes which blocks a mutation dirties and emits them as a write
// request list; the session submits that list as a write op, admitted
// in the same batches as reads. The coherence contract: within one
// admission batch, reads are served before writes (a read admitted
// concurrently with an in-flight write linearizes before it); each
// write then invalidates every cached extent overlapping its mutated
// [lbn, lbn+count) ranges before its simulated I/O cost is charged to
// the submitting session (Stats.Writes, Stats.InvalidatedBlocks).
// Only the service loop goroutine may touch the extent cache, so a
// completed write guarantees that no later FetchCell — from any
// session — can replay a stale, pre-update extent: with the cache on,
// post-update fetch costs are identical to a cache-off run.
// Store.Begin opens sessions that mix queries with updates
// concurrently; cmd/mmbench mirrors the mixed workload as
// -exp serve -writes <fraction>.
//
// # Write-back caching and group commit
//
// WithWriteBack(watermark, interval) switches every service from
// write-through to write-back: the loop absorbs each write op into a
// per-extent dirty buffer and acknowledges it immediately at zero
// simulated cost — repeated writes to the same blocks coalesce
// (Stats.CoalescedWrites) — and the whole dirty set later commits as
// ONE SPTF-scheduled batch (group commit, Stats.FlushBatches). Five
// triggers flush: the dirty-block watermark, the flush interval
// (measured from the oldest dirty write), a read overlapping dirty
// blocks (flush-before-read, so a read never observes pre-write disk
// state), an explicit Store/Session.Flush(ctx), and Close. Dirty
// extents never span disk-segment boundaries, and a buffered write
// still invalidates overlapping cached extents at absorb time, so the
// write-path coherence contract above is unchanged: with the cache
// on, a FetchCell after a buffered-but-unflushed Insert returns
// exactly what a write-back-off store returns. Flush costs are split
// among the sessions whose writes dirtied each extent, proportional
// to blocks contributed, so session totals still sum to
// ServiceTotals.Attributed; ServiceTotals.DirtyBlocks gauges the
// buffer. A cancelled Flush context commits nothing (the dirty set
// stays whole for the next trigger). With write-back off the write
// path is bit-identical to the pre-write-back engine (the fig6probe
// golden test holds). cmd/mmbench mirrors the knobs as
// -wb/-wb-watermark/-wb-interval, and -exp burst runs a closed-loop
// burst workload of three QoS classes (interactive/bulk/writer)
// reporting p50/p99/p999 host latency per class.
//
// # Sharded scatter-gather execution
//
// One logical dataset can span several shards (WithShards,
// internal/shard): shard 0 lives on the volume passed to Open and the
// rest on internally created volumes mirroring its hardware, each
// with its own service loop, head state, and extent cache. A
// deterministic router partitions the grid along Dim0 into slabs
// aligned to MultiMap's basic-cube boundaries, so every shard keeps
// the paper's sequential and semi-sequential locality; each shard maps
// its slab onto its own volume with the same placement. Store.Begin
// then returns a scatter-gather session — one engine session per shard
// — that splits every query box by owning shard, runs the per-shard
// streaming plans through all shard services concurrently (shards
// scale across CPUs, not just across an admission batch), and merges
// the per-shard Stats by summation, so session totals still sum to the
// per-shard service totals (Store.Metrics().Shards): the attribution
// property holds group-wide. Updates route to the shard owning their
// cell, with a per-shard overflow pool spread round-robin across that
// shard's member-disk tails. With one shard the group degenerates to
// exactly the single-volume stack, so the default path is unchanged
// bit for bit (cmd/fig6probe's "shard" mode is held to the same
// golden file as its plain mode).
// Store.Close releases the internal shard volumes; Store.Reset
// restores all of them. cmd/mmbench mirrors the knob as
// -exp serve -shards N, printing queries/sec at 1, 2, 4, ... N shards;
// WithBatchWindow (mmbench -window) adds a time-based admission window
// so bursty clients coalesce into shared batches.
//
// # Context-first API: cancellation, deadlines, QoS admission
//
// The public surface is one capability-unified Store: Open maps a
// dataset with functional options, Updatable(UpdateOptions) enables
// the §4.6 write path, and every blocking operation — Beam,
// RangeQuery, FetchCell, Insert, Delete, LoadCell, on the Store or on
// its Sessions — takes a context.Context first.
//
// Cancellation flows through every layer. The streaming planner stops
// between chunks; the service loop drops a cancelled operation's
// queued chunks before admission, so work never issued is never
// charged simulated I/O; on a sharded store the first part to fail
// cancels its sibling shards' remaining work (errgroup-style). A
// cancelled operation returns the partial Stats of the work that WAS
// issued alongside the context's error, with
// Stats.Cancelled/DeadlineExceeded counting the dropped operations —
// and the attribution-sum property survives: session totals still sum
// to ServiceTotals.Attributed for issued work. Closed stores and
// volumes fail fast with ErrClosed. A volume keeps the one service it
// was built with for life, so Volume.Close is terminal: Open on a
// closed volume fails with ErrClosed too, and Volume.Reset is a no-op.
//
// Deadlines are the QoS signal. With WithDeadlineAging(d), each
// admission pass serves urgent requests — those whose context carries
// a deadline, and those queued at least d — first, as their own batch
// ordered by effective deadline, never coalesced with the pass's bulk:
// an old or urgent request bounds how long coalescing may delay it, so
// a hot cache or a big concurrent batch cannot starve a
// latency-sensitive session. examples/deadline demonstrates both the
// partial-stats contract and the fairness effect; cmd/mmbench mirrors
// the knobs as -exp serve -deadline/-aging and reports the deadline
// session's ms/query plus cancelled/expired drop counts. With
// background contexts and aging off, admission stays in submission
// order — bit-identical to the pre-QoS engine.
//
// # Weighted-fair QoS classes and the partitioned cache
//
// WithFairShare(quantum) generalizes urgent-first into full
// weighted-fair admission. Sessions declare a QoS class
// (Store.BeginQoS, or WithQoS for the store's default session);
// WithQoSClass(name, weight, urgent) registers each class's share.
// Every admission pass runs deficit round-robin over the queued ops'
// SIMULATED block cost: each backlogged class earns quantum × weight
// blocks of credit, admits its ops FIFO while the credit covers them,
// and carries the unused deficit into the next pass (reset when the
// class drains, so an idle class cannot hoard credit); admitted
// classes are served cheapest group first, and a class whose op
// exceeds its credit still admits one op per pass (no livelock), the
// rest counted in ClassTotals.Deferred. Urgent work — an explicit
// deadline, an op aged past WithDeadlineAging, or a class registered
// urgent — keeps strict priority ahead of all weighted sharing. The
// same weights partition the shared extent cache into per-class
// reserve floors (capacity × weight / Σweights): any class may borrow
// idle capacity, but over-capacity eviction reclaims over-reserve
// extents (LRU-most first), so a bulk scan can no longer evict an
// interactive session's hot extents below its floor. The cache keeps
// one LRU list per class and a monotone recency stamp, so the victim is
// the oldest of the over-reserve classes' list backs (of all classes'
// backs with fair sharing off — the global LRU back): O(#classes) per
// eviction, however many extents the protected classes hold. Expired
// range queries return speculative partial results: the merged Stats of
// the work already issued come back with Stats.Partial set alongside
// the context's error, so a caller can use a partial aggregate instead
// of discarding it. Per-class bookkeeping (ops, urgent ops, deferrals,
// attributed Stats — summing to ServiceTotals.Attributed per class,
// group-wide on a sharded store) is surfaced by Store.ClassTotals.
// There is one admission scheduler: with WithFairShare omitted it runs
// as a single class with unbounded credit — nothing is deferred, the
// class registry is not consulted — so admission, cache, and Stats are
// bit-identical to the pre-QoS engine (the fig6probe golden test
// holds).
// cmd/mmbench mirrors the knob as -fair <quantum> (the burst
// workload registers interactive/bulk/writer at weights 1/4/1), and
// its -cpuprofile/-memprofile flags write pprof profiles for hunting
// scheduler hot spots: run e.g.
//
//	mmbench -exp burst -clients 6 -wb -fair 4096 -cpuprofile cpu.pb.gz
//	go tool pprof cpu.pb.gz
//
// # Multi-tenant volume pool: thin provisioning, growth, snapshots
//
// OpenPool builds a placement layer above everything else: a pool of
// simulated drives hosting many tenant datasets at once (internal/pool
// over the segment-mapped LVM). Pool.Create carves thin-provisioned
// volumes from the pooled drives — track-aligned extents, possibly
// non-contiguous and spread across drives — and opens an ordinary
// Store over them under live traffic from other tenants; WithCapacity
// sets the initial size (default auto-sizes from the dataset shape)
// and WithDrives restricts placement. Pool.Grow extends a tenant
// online, lvextend-style: the new extents publish atomically to the
// running services (in-flight batches finish on the old extent table),
// and on an updatable store they immediately join the §4.6 overflow
// pools, so chains grow past the initial capacity without re-opening
// anything. Pool.Snapshot freezes a tenant copy-on-write and
// Pool.Clone materializes new tenants from the frozen image: clone
// reads fall through to the shared extents at zero extra pool space,
// and the first write to a frozen track — by parent or clone — pays a
// copy-out fault (read the shared track, remap it onto a private
// extent), charged to the writing session like any write and counted
// in Stats.CowFaultBlocks. Pool.Destroy flushes, drains, and returns
// the tenant's extents to the pool; Pool.Tenants and Pool.Usage
// surface per-tenant and per-drive accounting.
//
// The COW-versus-write-back coherence contract: Snapshot flushes the
// tenant's write-back dirty buffers before freezing, so acknowledged
// writes are always in the frozen image and dirty data never straddles
// a freeze; after the snapshot, the write path resolves a write's COW
// faults before absorbing it into the dirty buffer, so buffered dirty
// extents only ever cover private (never shared) storage and group
// commit needs no COW awareness. A tenant whose volumes fully own
// their drives behaves bit-identically to the classic single-tenant
// path — the pool layer costs nothing when unused (the fig6probe
// golden test holds).
//
// WithAutoGrow(increment) arms every updatable tenant with online
// capacity growth: when an Insert or LoadCell exhausts the tenant's
// overflow pool, the store grows the tenant by the increment (the
// same path as Pool.Grow) and retries transparently — a bulk load
// larger than one increment simply loops — so the update succeeds
// without the caller ever seeing core.ErrOverflowExhausted. A
// genuinely full drive still errors. Auto-grown capacity is audited
// per drive in Pool.Usage (DriveUsage.AutoGrownBlocks); cmd/mmbench's
// -exp tenants workload exercises the path and reports the total.
//
// # Network daemon: sessions over the wire
//
// cmd/mmserved wraps all of the above in a long-running daemon
// (internal/server, stdlib net/http): remote clients open stores and
// pools, begin plain or QoS sessions, and run every session operation
// over JSON endpoints — with range queries streamed as NDJSON, one
// chunk line flushed to the client as the engine retires it (the
// streaming planner's chunks go over the wire instead of buffering the
// query), closed by a trailer carrying the aggregate Stats, the
// session's lifetime Stats, and per-class totals. Wire-level
// cancellation and deadlines land in the engine exactly like embedded
// callers': a client disconnect cancels the request's context (queued
// chunks are dropped into Stats.Cancelled with attribution sums
// intact), and a ?deadline_ms= parameter becomes a context deadline
// feeding the deadline/QoS-aware admission. GET /v1/events is a
// Server-Sent Events feed interleaving lifecycle events with periodic
// Metrics snapshots — Store.Metrics() aggregates per-service queue
// depth, admission-batch evidence, cache hit rate, per-class totals,
// and p50/p99 completed-query host latency from a fixed-size latency
// ring, all lock-cheap so scraping never blocks admission. cmd/mmbench
// mirrors the client side as -remote <addr> -store <name>, driving
// serve-style load against a live daemon and reporting first-chunk
// latency (the streaming proof) alongside the usual tables. With the
// daemon out of the picture the library path is untouched — the
// fig6probe golden test holds.
//
// Quick start:
//
//	vol, _ := multimap.OpenVolume(multimap.AtlasTenKIII)
//	store, _ := multimap.Open(vol, multimap.MultiMap, []int{259, 259, 259})
//	stats, _ := store.Beam(context.Background(), 1, []int{10, 0, 42}) // beam along Dim1
//	fmt.Printf("%.3f ms/cell\n", stats.MsPerCell())
//
// See PAPER.md for the paper's mechanisms and the system inventory, and
// CHANGES.md for what each change measured.
package multimap

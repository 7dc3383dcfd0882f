package multimap

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// Option configures Open. Every knob validates when Open applies it,
// so a bad value fails the open instead of being silently clamped.
type Option func(*config) error

// config is the resolved option set behind Open. svc holds the
// service-level knobs exactly as the shard services take them: the
// With* options fill it and open hands it to engine.Service.Apply,
// whose overlay rule — a zero field means "option omitted" and leaves
// the (possibly shared) volume service's current setting alone — is the
// one those options' docs refer to.
type config struct {
	diskIdx     int
	cellBlocks  int
	policy      string
	chunkCells  int64
	maxInflight int
	shards      int
	svc         engine.ServiceOptions
	qosClass    string
	updatable   bool
	update      UpdateOptions

	// Pool-only state. poolOpen marks a config assembled by Pool.Create;
	// the two pool-only options below validate against it, so plain Open
	// rejects them.
	poolOpen bool
	capacity int64
	drives   []int
}

func defaultConfig() config {
	return config{diskIdx: 0, maxInflight: 1, shards: 1}
}

// WithDiskIdx pins the dataset to one member drive. -1 lets MultiMap
// decluster basic cubes across drives (§4.4); linear mappings treat -1
// as drive 0. The default is drive 0.
func WithDiskIdx(idx int) Option {
	return func(c *config) error {
		if idx < -1 {
			return fmt.Errorf("multimap: disk index %d must be -1 (decluster) or a drive index", idx)
		}
		c.diskIdx = idx
		return nil
	}
}

// WithCellBlocks sets the cell size in blocks (default 1) — §4's "a
// single cell can occupy multiple LBNs".
func WithCellBlocks(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("multimap: cell blocks must be non-negative")
		}
		c.cellBlocks = n
		return nil
	}
}

// WithPolicy forces the drive-internal scheduling policy for every
// query ("fifo", "sptf"); the default keeps each mapping's
// preferred policy (§5.2). Use it for scheduler comparison runs.
func WithPolicy(name string) Option {
	return func(c *config) error {
		c.policy = name
		return nil
	}
}

// WithChunkCells bounds how many cells the streaming planner expands
// per dispatch chunk; 0 (the default) plans each query as one chunk.
// Chunking bounds planner memory on huge ranges at the cost of sorting
// per chunk instead of globally.
func WithChunkCells(n int64) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("multimap: chunk cells must be non-negative")
		}
		c.chunkCells = n
		return nil
	}
}

// WithCache sizes the volume's shared extent cache in blocks. The
// cache is a service-level resource: it starts off, a positive value
// reconfigures it for every store sharing the volume, and 0 — like
// every service-level option left at zero, the overlay rule of
// engine.Service.Apply — leaves the volume's current configuration
// unchanged. Overlapping queries skip re-simulated I/O
// (Stats.CacheHits).
func WithCache(blocks int64) Option {
	return func(c *config) error {
		if blocks < 0 {
			return fmt.Errorf("multimap: CacheBlocks must be non-negative")
		}
		c.svc.CacheBlocks = blocks
		return nil
	}
}

// WithMaxInflight sets how many plan chunks each of this store's
// sessions keeps outstanding in the service at once (default 1). Even
// at 1 the planner is pipelined — chunk N+1 is planned while chunk N
// is on the disks; higher values also let one query's chunks share
// admission batches. Values below 1 select the default.
func WithMaxInflight(n int) Option {
	return func(c *config) error {
		if n < 1 {
			n = 1
		}
		c.maxInflight = n
		return nil
	}
}

// WithShards spreads the dataset across this many independent shard
// volumes, each with its own query-service loop, head state, and
// extent cache. The grid is partitioned along Dim0 into slabs aligned
// to MultiMap's basic-cube boundaries; shard 0 lives on the volume
// passed to Open and shards 1..N-1 on internally created volumes
// mirroring its hardware (release them with Store.Close). Queries
// scatter-gather: each box is split by owning shard, served by all
// shard services concurrently, and the per-shard Stats merge by
// summation. 0 and 1 both mean a single shard on the caller's volume.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("multimap: Shards must be non-negative")
		}
		if n < 1 {
			n = 1
		}
		c.shards = n
		return nil
	}
}

// WithBatchWindow sets the time-based admission window of every shard
// service this store uses: when positive, the service loop waits the
// window out after noticing queued work before admitting it as one
// batch, so bursty concurrent clients coalesce better. Like WithCache
// it reconfigures the (possibly shared) volume service; 0 leaves the
// service's current window unchanged (default: admit immediately). A
// queued request's context deadline shortens the wait, so the window
// never expires a request by itself.
func WithBatchWindow(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("multimap: BatchWindow must be non-negative")
		}
		c.svc.BatchWindow = d
		return nil
	}
}

// WithDeadlineAging turns on deadline/QoS-aware admission for every
// shard service this store uses. When positive, each admission pass
// serves urgent requests — those whose context carries a deadline, and
// those queued for at least the aging duration — first, as their own
// batch ordered by effective deadline, never coalesced with the
// pass's bulk. An urgent or old request is therefore delayed by
// coalescing for at most one batch of similarly urgent peers, which is
// how a session under context.WithDeadline gets latency ahead of big
// concurrent batch work. Like WithCache this reconfigures the
// (possibly shared) volume service; 0 leaves the service's current
// setting unchanged (default: off — admission stays in submission
// order, bit-identical to the pre-QoS behavior).
func WithDeadlineAging(d time.Duration) Option {
	return func(c *config) error {
		if d < 0 {
			return fmt.Errorf("multimap: DeadlineAging must be non-negative")
		}
		c.svc.DeadlineAging = d
		return nil
	}
}

// WithWriteBack turns on write-back caching with group commit for
// every shard service this store uses: Insert/Delete write ops are
// absorbed into a per-service dirty buffer (repeated writes to the
// same extent coalesce) and committed later as ONE SPTF-scheduled
// batch — amortizing disk positioning across adjacent writes the way
// the paper's batching amortizes it across reads. A flush happens when
// the buffer reaches watermarkBlocks, when the oldest dirty extent has
// been buffered for flushInterval, when a read overlaps dirty data
// (reads never observe pre-write disk state), on Store.Flush /
// Session.Flush, and on close. Zero values select the engine defaults;
// negative values fail the open. Cache coherence is unchanged —
// buffered writes still invalidate overlapping cached extents
// immediately. Like WithCache this reconfigures the (possibly shared)
// volume service under the same overlay rule: omitting the option
// leaves the service's current write-back setting unchanged (default:
// off, bit-identical to the write-through path).
func WithWriteBack(watermarkBlocks int64, flushInterval time.Duration) Option {
	return func(c *config) error {
		if watermarkBlocks < 0 {
			return fmt.Errorf("multimap: write-back watermark must be non-negative")
		}
		if flushInterval < 0 {
			return fmt.Errorf("multimap: write-back flush interval must be non-negative")
		}
		c.svc.WriteBack = engine.WriteBackOptions{
			Enabled: true, WatermarkBlocks: watermarkBlocks, FlushInterval: flushInterval,
		}
		return nil
	}
}

// WithQoSClass registers a QoS class on every shard service this store
// uses: name is the label sessions declare (see WithQoS / BeginQoS),
// weight is the class's share of each weighted-fair admission pass
// (values below 1 are treated as 1), and urgent marks a
// strict-priority class whose ops always join the urgent front batch,
// ahead of all weighted sharing, exactly as if each carried an
// explicit context deadline. Registered weights also set the extent
// cache's per-class reserve floors (capacity × weight / Σweights).
// The registration only takes effect together with WithFairShare;
// sessions of unregistered classes get weight 1 and no cache reserve.
func WithQoSClass(name string, weight int, urgent bool) Option {
	return func(c *config) error {
		if weight < 1 {
			return fmt.Errorf("multimap: QoS class %q weight must be at least 1", name)
		}
		for _, cl := range c.svc.Classes {
			if cl.Name == name {
				return fmt.Errorf("multimap: QoS class %q registered twice", name)
			}
		}
		c.svc.Classes = append(c.svc.Classes, engine.QoSClass{Name: name, Weight: weight, Urgent: urgent})
		return nil
	}
}

// WithFairShare turns on weighted-fair (deficit-round-robin) admission
// for every shard service this store uses. Each admission pass grants
// every backlogged QoS class quantum × weight blocks of credit,
// admits each class's ops FIFO while the credit covers their
// simulated block cost, and defers the rest to later passes — so one
// class's bulk burst can no longer monopolize an admission pass, while
// urgent work (an explicit context deadline, a WithQoSClass urgent
// class, or an op aged past WithDeadlineAging) keeps strict priority.
// The same class weights partition the extent cache into per-class
// reserve floors with borrow-but-evict-borrowers-first semantics.
// quantum 0 selects the engine default (engine.DefaultFairQuantum);
// negative fails the open. Like WithCache this reconfigures the
// (possibly shared) volume service under the same overlay rule, the
// WithQoSClass registry riding along as one setting with the quantum;
// omitting the option leaves the service's fair-share setting unchanged
// (default: off — admission bit-identical to the pre-QoS behavior).
func WithFairShare(quantum int64) Option {
	return func(c *config) error {
		if quantum < 0 {
			return fmt.Errorf("multimap: fair-share quantum must be non-negative")
		}
		if quantum == 0 {
			quantum = engine.DefaultFairQuantum
		}
		c.svc.FairQuantum = quantum
		return nil
	}
}

// WithQoS sets the QoS class of the store's default session — the one
// behind the Store-level operations and plain Begin. Use BeginQoS for
// per-session classes. The class should be registered with
// WithQoSClass when fair sharing is on.
func WithQoS(class string) Option {
	return func(c *config) error {
		c.qosClass = class
		return nil
	}
}

// WithCapacity sets a tenant's initial thin-provisioned capacity in
// blocks, split evenly across its shard volumes. 0 (the default) sizes
// the volumes automatically from the dataset shape, growing and
// retrying until the mapping fits. Valid only inside Pool.Create —
// plain Open has no allocator and rejects it.
func WithCapacity(blocks int64) Option {
	return func(c *config) error {
		if !c.poolOpen {
			return fmt.Errorf("multimap: WithCapacity applies only to Pool.Create")
		}
		if blocks < 0 {
			return fmt.Errorf("multimap: capacity must be non-negative")
		}
		c.capacity = blocks
		return nil
	}
}

// WithDrives restricts a tenant's extent allocation to the given pool
// drive indices (shard i prefers drive i mod len(idx), spilling to the
// others in the list before failing). The default allows every pool
// drive. Valid only inside Pool.Create — plain Open has no allocator
// and rejects it.
func WithDrives(idx ...int) Option {
	return func(c *config) error {
		if !c.poolOpen {
			return fmt.Errorf("multimap: WithDrives applies only to Pool.Create")
		}
		if len(idx) == 0 {
			return fmt.Errorf("multimap: WithDrives needs at least one drive index")
		}
		c.drives = append([]int(nil), idx...)
		return nil
	}
}

// Updatable enables the paper's online-update support (§4.6) on the
// store: cells are loaded at a tunable fill factor, inserts that
// overflow a cell go to overflow pages, and underflowing chains are
// reorganized. Sessions of an updatable store serve Insert, Delete,
// and LoadCell alongside the query operations; without this option
// those methods fail with ErrNotUpdatable. The UpdateOptions value
// tunes §4.6 behaviour (zero value selects every default).
func Updatable(opts UpdateOptions) Option {
	return func(c *config) error {
		c.updatable = true
		c.update = opts
		return nil
	}
}

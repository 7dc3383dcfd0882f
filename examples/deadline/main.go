// Command deadline demonstrates the context-first Store API: deadlines
// as a first-class QoS signal.
//
// Part 1 issues one large range query under a context.WithTimeout far
// too short to finish it. The streaming planner stops between chunks,
// the service drops the query's queued chunks before admission (no
// simulated I/O is charged for work never issued), and the call
// returns the partial Stats of the chunks that WERE served alongside
// context.DeadlineExceeded — with Stats.DeadlineExceeded counting the
// dropped operations.
//
// Part 2 is the fairness demo: seven bulk sessions hammer the store
// while one QoS session issues queries under a per-query deadline.
// Without deadline-aware admission the QoS session's chunks coalesce
// into the bulk sessions' big admission batches and observe their
// elapsed time; with WithDeadlineAging the admission batcher serves
// deadline-carrying requests first, in their own batch, so the same
// session sees a small fraction of the latency at nearly identical
// aggregate throughput.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	multimap "repro"
)

var dims = []int{130, 130, 130}

func main() {
	partial()
	fmt.Println()
	fairness()
}

// partial shows a cancelled query's partial-stats contract.
func partial() {
	vol, err := multimap.OpenVolume(multimap.AtlasTenKIII)
	if err != nil {
		panic(err)
	}
	defer vol.Close()
	store, err := multimap.Open(vol, multimap.MultiMap, dims,
		multimap.WithChunkCells(1024), multimap.WithMaxInflight(4))
	if err != nil {
		panic(err)
	}
	total := int64(dims[0]) * int64(dims[1]) * int64(dims[2])

	// A background bulk query keeps the service busy, so some of the
	// deadline query's chunks are still queued when its deadline passes
	// — those are dropped before admission (the service-side counters).
	bulk := store.Begin()
	bulkDone := make(chan struct{})
	go func() {
		defer close(bulkDone)
		if _, err := bulk.RangeQuery(context.Background(), []int{0, 0, 0}, dims); err != nil {
			panic(err)
		}
	}()
	time.Sleep(time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	st, err := store.RangeQuery(ctx, []int{0, 0, 0}, dims)
	<-bulkDone
	fmt.Printf("full-box range query (%d cells) under a 5ms deadline:\n", total)
	fmt.Printf("  err               = %v (DeadlineExceeded: %v)\n",
		err, errors.Is(err, context.DeadlineExceeded))
	fmt.Printf("  partial cells     = %d of %d (%.1f%%)\n",
		st.Cells, total, 100*float64(st.Cells)/float64(total))
	fmt.Printf("  simulated I/O     = %.1f ms charged for the issued chunks only\n", st.TotalMs)
	fmt.Printf("  dropped ops       = %d (Stats.DeadlineExceeded)\n", st.DeadlineExceeded)
	// Drops land wherever the deadline catches the work: at the
	// submitter before an op is queued (counted only in the query's
	// Stats, as here) or at the service before admission (also counted
	// in ServiceTotals.Cancelled/DeadlineExceeded).
	tot := vol.ServiceTotals()
	fmt.Printf("  service-side drops = cancelled %d, deadline-exceeded %d\n",
		tot.Cancelled, tot.DeadlineExceeded)
}

// fairness compares the QoS session's observed latency with and
// without deadline-aware admission.
func fairness() {
	const (
		bulkClients   = 7
		bulkQueries   = 12
		qosQueries    = 12
		qosDeadline   = 100 * time.Millisecond
		agedAdmission = 2 * time.Millisecond
	)
	fmt.Printf("fairness: %d bulk sessions vs one session under a %v per-query deadline\n",
		bulkClients, qosDeadline)

	run := func(aging time.Duration) (meanMs float64, expired int) {
		vol, err := multimap.OpenVolume(multimap.AtlasTenKIII)
		if err != nil {
			panic(err)
		}
		defer vol.Close()
		opts := []multimap.Option{
			multimap.WithChunkCells(256),
			multimap.WithMaxInflight(2),
		}
		if aging > 0 {
			opts = append(opts, multimap.WithDeadlineAging(aging))
		}
		store, err := multimap.Open(vol, multimap.MultiMap, dims, opts...)
		if err != nil {
			panic(err)
		}

		var wg sync.WaitGroup
		for i := 0; i < bulkClients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sess := store.Begin()
				rng := rand.New(rand.NewSource(int64(100 + i)))
				for q := 0; q < bulkQueries; q++ {
					lo := []int{rng.Intn(dims[0] / 2), rng.Intn(dims[1] / 2), rng.Intn(dims[2] / 2)}
					hi := []int{lo[0] + dims[0]/2, lo[1] + dims[1]/2, lo[2] + dims[2]/2}
					if _, err := sess.RangeQuery(context.Background(), lo, hi); err != nil {
						panic(err)
					}
				}
			}(i)
		}

		qos := store.Begin()
		var sumMs float64
		completed := 0
		for q := 0; q < qosQueries; q++ {
			ctx, cancel := context.WithTimeout(context.Background(), qosDeadline)
			st, err := qos.Beam(ctx, 1, []int{10, 0, 42})
			cancel()
			switch {
			case err == nil:
				sumMs += st.ElapsedMs
				completed++
			case errors.Is(err, context.DeadlineExceeded):
				expired++
			default:
				panic(err)
			}
		}
		wg.Wait()
		if completed > 0 {
			meanMs = sumMs / float64(completed)
		}
		return meanMs, expired
	}

	plainMs, plainExpired := run(0)
	agedMs, agedExpired := run(agedAdmission)
	fmt.Printf("  admission in submission order: QoS session %.1f ms/query, %d expired\n",
		plainMs, plainExpired)
	fmt.Printf("  deadline-aware admission (%v): QoS session %.1f ms/query, %d expired\n",
		agedAdmission, agedMs, agedExpired)
	if agedMs > 0 && plainMs > 0 {
		fmt.Printf("  -> %.1fx lower observed latency for the deadline session\n", plainMs/agedMs)
	}
}

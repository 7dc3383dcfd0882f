package engine

// The reference runner: the synchronous drain loop that served every
// figure before the Session became the one runner, kept verbatim (minus
// its trace hook, plus the cell conversion its query caller applied,
// which the service loop makes when it prices a chunk) as the oracle
// the session path is held to with ==.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/lvm"
)

// refRun drains a plan through the volume and aggregates its
// statistics: the drain loop checks ctx between chunks and stops
// planning as soon as it is cancelled or past its deadline. On a context
// error the Stats accumulated so far are returned alongside it — the
// partial-stats contract — with the matching Cancelled or
// DeadlineExceeded counter bumped once for the chunk that was not
// issued.
func refRun(ctx context.Context, vol *lvm.Volume, p Plan, opts Options) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var st Stats
	for {
		if err := ctx.Err(); err != nil {
			st.countContextErr(err)
			return st, err
		}
		c, ok, err := p.Next()
		if err != nil {
			return st, err
		}
		if !ok {
			return st, nil
		}
		comps, elapsed, err := vol.ServeBatch(c.Reqs, c.Policy)
		if err != nil {
			return st, err
		}
		// The chunk is priced once, as its own Stats, and that value is
		// what the query's total accumulates and what the hook sees. Its
		// Cells are the useful cells, the blocks read less the padding.
		var d Stats
		d.AddCompletions(comps, elapsed)
		d.Padding = c.Padding
		d.Cells -= c.Padding
		st.Accumulate(d)
		if opts.OnChunk != nil {
			opts.OnChunk(d)
		}
	}
}

// runResult is one runner's complete answer: the query's Stats, its
// error and every Stats its OnChunk hook saw, in order.
type runResult struct {
	st     Stats
	err    error
	chunks []Stats
}

// runBoth runs the same plan on a fresh volume through refRun and
// through a lone OnVolume session. mkPlan builds a fresh plan per run
// (plans are single-use); mkVol builds identical pristine volumes.
func runBoth(ctx context.Context, mkVol func() *lvm.Volume, mkPlan func() Plan) (ref, got runResult) {
	run := func(r func(context.Context, Plan, Options) (Stats, error)) runResult {
		var res runResult
		opts := Options{OnChunk: func(d Stats) { res.chunks = append(res.chunks, d) }}
		res.st, res.err = r(ctx, mkPlan(), opts)
		return res
	}
	vRef := mkVol()
	ref = run(func(ctx context.Context, p Plan, o Options) (Stats, error) { return refRun(ctx, vRef, p, o) })
	got = run(OnVolume(mkVol()).RunPlan)
	return ref, got
}

// sameRun reports how two runs differ ("" when they agree ==): Stats,
// error (by message — both wrap the same cause) and chunk sequence.
func sameRun(ref, got runResult) string {
	if got.st != ref.st {
		return fmt.Sprintf("stats %+v != ref %+v", got.st, ref.st)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
		return fmt.Sprintf("error %v != ref %v", got.err, ref.err)
	}
	if len(got.chunks) != len(ref.chunks) {
		return fmt.Sprintf("%d OnChunk calls != ref %d", len(got.chunks), len(ref.chunks))
	}
	for i := range ref.chunks {
		if got.chunks[i] != ref.chunks[i] {
			return fmt.Sprintf("chunk %d: %+v != ref %+v", i, got.chunks[i], ref.chunks[i])
		}
	}
	return ""
}

// refChunks draws 1–6 chunks under an all-SPTF, all-FIFO or mixed
// policy mix, with non-zero padding on most of them.
func refChunks(rng *rand.Rand, v *lvm.Volume) []Chunk {
	mix := rng.Intn(3)
	chunks := make([]Chunk, 1+rng.Intn(6))
	for i := range chunks {
		policy := disk.SchedSPTF
		if mix == 1 || (mix == 2 && rng.Intn(2) == 0) {
			policy = disk.SchedFIFO
		}
		reqs := randomReqs(rng, v, 1+rng.Intn(60))
		if rng.Intn(2) == 0 {
			reqs, _ = lvm.Coalesce(reqs, 0)
		}
		chunks[i] = Chunk{Reqs: reqs, Policy: policy, Padding: int64(rng.Intn(4))}
	}
	return chunks
}

// TestSessionMatchesRef: a lone OnVolume session must return exactly
// what the reference drain loop returns — Stats ==, floats included,
// and the same OnChunk sequence — over random chunked plans on one- and
// multi-disk volumes and every policy mix.
func TestSessionMatchesRef(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		geoms := make([]*disk.Geometry, 1+int(seed%3))
		for i := range geoms {
			geoms[i] = disk.SmallTestDisk()
		}
		mkVol := func() *lvm.Volume { return testVolume(t, geoms...) }
		chunks := refChunks(rng, mkVol())
		ref, got := runBoth(context.Background(), mkVol, func() Plan { return chunkPlan(chunks) })
		if ref.err != nil {
			t.Fatalf("seed %d: reference failed: %v", seed, ref.err)
		}
		if len(ref.chunks) != len(chunks) {
			t.Fatalf("seed %d: reference saw %d chunks of %d", seed, len(ref.chunks), len(chunks))
		}
		if d := sameRun(ref, got); d != "" {
			t.Fatalf("seed %d (%d chunks): %s", seed, len(chunks), d)
		}
	}
}

// TestSessionMatchesRefOnFailure: the partial-stats contract is the
// reference's too — a plan that fails at chunk k, a chunk the volume
// rejects, a context already cancelled and one already past its
// deadline all return the same partial Stats, error and chunk sequence.
// The dead contexts meet an empty plan and one failing at chunk 0 too:
// the context wins before anything is planned.
func TestSessionMatchesRefOnFailure(t *testing.T) {
	errPlan := errors.New("planner failed")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	empty := func() Plan { return chunkPlan(nil) }
	failFirst := func() Plan {
		return planFunc(func() (Chunk, bool, error) { return Chunk{}, false, errPlan })
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		mkVol := func() *lvm.Volume { return testVolume(t) }
		chunks := refChunks(rng, mkVol())
		k := rng.Intn(len(chunks) + 1)

		failAt := func() Plan {
			i := 0
			return planFunc(func() (Chunk, bool, error) {
				if i == k {
					return Chunk{}, false, errPlan
				}
				i++
				return chunks[i-1], true, nil
			})
		}
		bad := append([]Chunk(nil), chunks...)
		if k < len(bad) {
			bad[k].Reqs = append(append([]lvm.Request(nil), bad[k].Reqs...), lvm.Request{VLBN: 1 << 40, Count: 1})
		}
		for _, tc := range []struct {
			name   string
			ctx    context.Context
			plan   func() Plan
			wantOK bool
		}{
			{"plan error", context.Background(), failAt, false},
			{"rejected chunk", context.Background(), func() Plan { return chunkPlan(bad) }, k == len(bad)},
			{"cancelled", cancelled, func() Plan { return chunkPlan(chunks) }, false},
			{"expired", expired, func() Plan { return chunkPlan(chunks) }, false},
			{"cancelled, empty plan", cancelled, empty, false},
			{"expired, empty plan", expired, empty, false},
			{"cancelled, plan fails at 0", cancelled, failFirst, false},
			{"expired, plan fails at 0", expired, failFirst, false},
		} {
			ref, got := runBoth(tc.ctx, mkVol, tc.plan)
			if (ref.err == nil) != tc.wantOK {
				t.Fatalf("seed %d %s: reference error %v", seed, tc.name, ref.err)
			}
			if d := sameRun(ref, got); d != "" {
				t.Fatalf("seed %d %s (fail at %d of %d): %s", seed, tc.name, k, len(chunks), d)
			}
		}
	}
}

// TestSessionSingleMatchesRun: a lone session on a service the caller
// owns, cache off, returns the reference's Stats bit for bit, and the
// service's totals and the session's lifetime totals say the same, in
// the same unit: useful cells in Cells, bridged blocks in Padding.
func TestSessionSingleMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vRef := testVolume(t)
	vSvc := testVolume(t)
	chunks := randomChunks(rng, vRef, 5, 40)

	want, err := refRun(context.Background(), vRef, chunkPlan(chunks), Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(vSvc, ServiceOptions{})
	defer svc.Close()
	sess := svc.NewSession(SessionOptions{})
	got, err := sess.RunPlan(context.Background(), chunkPlan(chunks), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("session stats %+v != reference stats %+v", got, want)
	}
	if tot := svc.Totals(); tot.Attributed != want || tot.Batches != 5 || tot.MergedBatches != 0 {
		t.Fatalf("service totals %+v inconsistent with %+v", tot, want)
	}
	if sess.Totals() != want {
		t.Fatalf("session lifetime totals %+v != %+v", sess.Totals(), want)
	}
}

package main

import (
	"context"
	"fmt"
	"math"

	multimap "repro"
	"repro/internal/server"
)

// target is one client's handle on the system under test: an embedded
// session or a wire session. Range reports every retired chunk's own
// Stats to onChunk as the caller sees it arrive.
type target interface {
	Beam(ctx context.Context, dim int, fixed []int) (multimap.Stats, error)
	Range(ctx context.Context, lo, hi []int, onChunk func(multimap.Stats)) (multimap.Stats, error)
	Fetch(ctx context.Context, cell []int) (multimap.Stats, error)
	Insert(ctx context.Context, cell []int) (multimap.Stats, error)
	Delete(ctx context.Context, cell []int) (multimap.Stats, error)
	// Flush commits the session's buffered writes, so their simulated
	// cost is attributed before totals are read.
	Flush(ctx context.Context) error
	// Totals is the session's lifetime Stats.
	Totals(ctx context.Context) (multimap.Stats, error)
	Close(ctx context.Context) error
}

// embedded drives a public multimap.Session directly.
type embedded struct{ s *multimap.Session }

func (e embedded) Beam(ctx context.Context, dim int, fixed []int) (multimap.Stats, error) {
	return e.s.Beam(ctx, dim, fixed)
}

func (e embedded) Range(ctx context.Context, lo, hi []int, onChunk func(multimap.Stats)) (multimap.Stats, error) {
	return e.s.RangeQueryStream(ctx, lo, hi, func(c multimap.RangeChunk) { onChunk(c.Stats) })
}

func (e embedded) Fetch(ctx context.Context, cell []int) (multimap.Stats, error) {
	return e.s.FetchCell(ctx, cell)
}

func (e embedded) Insert(ctx context.Context, cell []int) (multimap.Stats, error) {
	return e.s.Insert(ctx, cell)
}

func (e embedded) Delete(ctx context.Context, cell []int) (multimap.Stats, error) {
	return e.s.Delete(ctx, cell)
}

func (e embedded) Flush(ctx context.Context) error { return e.s.Flush(ctx) }

func (e embedded) Totals(context.Context) (multimap.Stats, error) { return e.s.Stats(), nil }

func (e embedded) Close(ctx context.Context) error { return e.s.Close(ctx) }

// wireTarget drives one wire session through server.Client, the way
// mmbench -remote and any other HTTP caller does.
type wireTarget struct {
	c              *server.Client
	store, session string
}

func (w wireTarget) Beam(ctx context.Context, dim int, fixed []int) (multimap.Stats, error) {
	return w.c.Beam(ctx, w.store, w.session, dim, fixed, 0)
}

// Range streams the query and checks the wire's own bookkeeping: the
// trailer's aggregate must equal the sum of the chunk lines, and the
// trailer's chunk count the number of lines received.
func (w wireTarget) Range(ctx context.Context, lo, hi []int, onChunk func(multimap.Stats)) (multimap.Stats, error) {
	var sum multimap.Stats
	lines := 0
	tr, err := w.c.RangeQuery(ctx, w.store, w.session, lo, hi, 0, func(c server.ChunkWire) {
		st := c.Stats.Stats()
		sum.Accumulate(st)
		lines++
		onChunk(st)
	})
	if err != nil {
		return multimap.Stats{}, err
	}
	total := tr.Stats.Stats()
	if tr.Chunks != lines {
		return total, fmt.Errorf("trailer counts %d chunks, %d lines received", tr.Chunks, lines)
	}
	if err := sameWork(sum, total, sumTolerance); err != nil {
		return total, fmt.Errorf("chunk lines do not sum to the trailer: %w", err)
	}
	return total, nil
}

func (w wireTarget) Fetch(ctx context.Context, cell []int) (multimap.Stats, error) {
	return w.c.FetchCell(ctx, w.store, w.session, cell, 0)
}

func (w wireTarget) Insert(ctx context.Context, cell []int) (multimap.Stats, error) {
	return w.c.Insert(ctx, w.store, w.session, cell, 0)
}

func (w wireTarget) Delete(ctx context.Context, cell []int) (multimap.Stats, error) {
	return w.c.Delete(ctx, w.store, w.session, cell, 0)
}

func (w wireTarget) Flush(ctx context.Context) error { return w.c.Flush(ctx, w.store, w.session) }

func (w wireTarget) Totals(ctx context.Context) (multimap.Stats, error) {
	return w.c.SessionStats(ctx, w.store, w.session)
}

func (w wireTarget) Close(ctx context.Context) error {
	_, err := w.c.CloseSession(ctx, w.store, w.session)
	return err
}

// Relative error allowed between two views of the same simulated
// costs: sumTolerance when they are the same numbers added in another
// order, shareTolerance when one side was split proportionally among
// sessions first (the attribution-sum property; the repo's own tests
// use the same bound).
const (
	sumTolerance   = 1e-9
	shareTolerance = 1e-6
)

// sameWork compares the work two Stats describe: the integer counters
// exactly, the simulated time within tol. ElapsedMs is left out —
// merged batches are observed once per session but counted once per
// batch (see engine.ServiceTotals).
func sameWork(a, b multimap.Stats, tol float64) error {
	switch {
	case a.Cells != b.Cells:
		return fmt.Errorf("cells %d != %d", a.Cells, b.Cells)
	case a.Padding != b.Padding:
		return fmt.Errorf("padding %d != %d", a.Padding, b.Padding)
	case a.Requests != b.Requests:
		return fmt.Errorf("requests %d != %d", a.Requests, b.Requests)
	case a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses:
		return fmt.Errorf("cache hits/misses %d/%d != %d/%d", a.CacheHits, a.CacheMisses, b.CacheHits, b.CacheMisses)
	case a.Writes != b.Writes:
		return fmt.Errorf("writes %d != %d", a.Writes, b.Writes)
	case math.Abs(a.TotalMs-b.TotalMs) > tol*(1+math.Abs(a.TotalMs)):
		return fmt.Errorf("total ms %v != %v", a.TotalMs, b.TotalMs)
	}
	return nil
}

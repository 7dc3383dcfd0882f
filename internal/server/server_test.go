package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	multimap "repro"
)

// settleGoroutines polls until the goroutine count returns to the
// baseline — service loops exit with their stores, SSE loops with
// their connections.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// testSpec is a small multi-chunk store: chunk_cells keeps range
// queries streaming several chunks.
func testSpec(name string) OpenStoreRequest {
	return OpenStoreRequest{
		Name:       name,
		Disks:      []string{"mediumtest"},
		AdjDepth:   32,
		Mapping:    "multimap",
		Dims:       []int{16, 8, 8},
		ChunkCells: 16,
		Classes:    []multimap.QoSClass{{Name: "interactive", Weight: 2}},
	}
}

func startDaemon(t *testing.T, specs ...OpenStoreRequest) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := New()
	for _, spec := range specs {
		if _, err := srv.OpenStore(context.Background(), spec); err != nil {
			t.Fatalf("open %q: %v", spec.Name, err)
		}
	}
	ts := httptest.NewServer(srv)
	return srv, ts, NewClient(ts.URL)
}

// underlying returns the library store behind a daemon store, for
// asserting engine-side ground truth.
func underlying(t *testing.T, srv *Server, name string) *multimap.Store {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	se := srv.stores[name]
	if se == nil {
		t.Fatalf("store %q not registered", name)
	}
	return se.store
}

// TestDaemonLifecycle drives the full wire surface — open, sessions,
// beam, streamed range, metrics, close — and then proves a graceful
// shutdown drains everything: no goroutine survives Close.
func TestDaemonLifecycle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, ts, c := startDaemon(t, testSpec("life"))
	ctx := context.Background()

	infos, err := c.Stores(ctx)
	if err != nil || len(infos) != 1 || infos[0].Name != "life" {
		t.Fatalf("stores = %+v, %v", infos, err)
	}

	sess, err := c.Begin(ctx, "life", "interactive")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Beam(ctx, "life", sess, 0, []int{0, 3, 2}, 0)
	if err != nil {
		t.Fatalf("beam: %v", err)
	}
	if st.Cells == 0 || st.Requests == 0 {
		t.Fatalf("beam returned empty stats %+v", st)
	}

	chunks := 0
	tr, err := c.RangeQuery(ctx, "life", sess, []int{0, 0, 0}, []int{8, 8, 8}, 0, func(multimap.RangeChunk) { chunks++ })
	if err != nil {
		t.Fatalf("range: %v", err)
	}
	if chunks < 2 {
		t.Fatalf("want a multi-chunk stream, got %d chunks", chunks)
	}
	if tr.Chunks != chunks {
		t.Fatalf("trailer chunks %d != observed %d", tr.Chunks, chunks)
	}
	// Per-chunk deltas are reported in cell units; they must sum to the
	// aggregate (floats via the same additions, so exact equality on
	// counters suffices here).
	var sum multimap.Stats
	_, err = c.RangeQuery(ctx, "life", sess, []int{0, 0, 0}, []int{8, 8, 8}, 0, func(ch multimap.RangeChunk) {
		sum.Accumulate(ch.Stats)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells == 0 {
		t.Fatal("chunk deltas carried no cells")
	}

	m, err := c.Metrics(ctx, "life")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m.Queries < 3 || m.LatencyP50Ms <= 0 {
		t.Fatalf("metrics missed queries: %+v", m)
	}
	if len(m.Classes) == 0 {
		t.Fatal("metrics lost class totals")
	}

	if _, err := c.CloseSession(ctx, "life", sess); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionStats(ctx, "life", sess); err == nil {
		t.Fatal("closed session still resolves")
	}

	if err := srv.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Closed server refuses new work.
	if _, err := c.Begin(ctx, "life", ""); err == nil {
		t.Fatal("begin succeeded after Close")
	}
	ts.Close()
	settleGoroutines(t, baseline)
}

// TestStreamingFirstChunkBeforeCompletion proves range responses
// stream rather than buffer: the client reads the first chunk line off
// the wire while the daemon-side query is provably still in flight
// (held mid-stream by the test gate).
func TestStreamingFirstChunkBeforeCompletion(t *testing.T) {
	release := make(chan struct{})
	gated := make(chan int, 64)
	srv := New()
	// Install the gate before the listener exists so handlers never race
	// the assignment.
	srv.testChunkGate = func(store, session string, seq int) {
		gated <- seq
		if seq == 0 {
			<-release // hold the query after its first chunk is on the wire
		}
	}
	if _, err := srv.OpenStore(context.Background(), testSpec("stream")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())

	ctx := context.Background()
	c := NewClient(ts.URL)
	sess, err := c.Begin(ctx, "stream", "")
	if err != nil {
		t.Fatal(err)
	}

	body := strings.NewReader(`{"lo":[0,0,0],"hi":[16,8,8]}`)
	req, err := http.NewRequest(http.MethodPost,
		ts.URL+"/v1/stores/stream/sessions/"+sess+"/range", body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The gate is holding the query after chunk 0. Read that first line
	// now: if the server buffered the response, this read would block
	// until the (held) query finished and the test would time out.
	select {
	case seq := <-gated:
		if seq != 0 {
			t.Fatalf("first gated chunk has seq %d", seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no chunk reached the gate")
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var line StreamLine
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Chunk == nil || line.Chunk.Seq != 0 {
		t.Fatalf("first line is not chunk 0: %s", sc.Text())
	}
	if line.Trailer != nil {
		t.Fatal("query completed before first chunk was read")
	}

	close(release)
	var trailer *RangeTrailer
	for sc.Scan() {
		var l StreamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatal(err)
		}
		if l.Trailer != nil {
			trailer = l.Trailer
			break
		}
	}
	if trailer == nil {
		t.Fatalf("stream ended without trailer: %v", sc.Err())
	}
	if trailer.Error != "" || trailer.Chunks < 2 {
		t.Fatalf("bad trailer %+v", trailer)
	}
}

// TestDisconnectCancelsAndAttributes proves wire-level cancellation
// reaches the engine: a client that disconnects mid-stream bumps the
// service Cancelled counters, and the attribution invariant — summed
// session Stats equal ServiceTotals.Attributed — survives the partial
// query.
//
// The service counts a drop only for a chunk that was queued with a
// live context and found dead at its admission pass (a chunk the
// session finds dead before submitting is counted in the session's
// Stats alone), so the test establishes that order by events, not by
// hoping the disconnect lands in between:
//
//  1. The session keeps 4 chunks outstanding, so chunk 4 is submitted,
//     context alive, after chunk 0 is folded and before chunk 1 is; the
//     handler is then held at chunk 1's gate. (Chunks 1–3 are long
//     served by then: the DRR backlog drains in back-to-back passes.)
//  2. The client drops the connection and the test waits for the
//     daemon's request context to be done.
//  3. Chunk 4 is admitted no sooner than one admission window after it
//     was queued. If step 2 finished within half a window of chunk 0's
//     gate, the context died first and the pass must drop the chunk;
//     only then are the counters asserted. On a host stalled for longer
//     the attempt proves nothing and is repeated on a fresh session.
func TestDisconnectCancelsAndAttributes(t *testing.T) {
	const window = 100 * time.Millisecond
	type gate struct {
		chunk0  time.Time     // when chunk 0 passed the gate: before chunk 4 is submitted
		held    chan struct{} // closed once the handler is held at chunk 1
		release chan struct{}
	}
	var current atomic.Pointer[gate]
	srv := New()
	srv.testChunkGate = func(store, session string, seq int) {
		switch g := current.Load(); seq {
		case 0:
			g.chunk0 = time.Now()
		case 1:
			close(g.held)
			<-g.release
		}
	}
	spec := testSpec("drop")
	spec.MaxInflight = 4
	spec.BatchWindowUs = window.Microseconds()
	spec.FairQuantum = 20
	if _, err := srv.OpenStore(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	// Each range request hands the test its daemon-side context, and
	// says when its handler has returned.
	rangeCtx := make(chan context.Context, 1)
	rangeDone := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/range") {
			rangeCtx <- r.Context()
			defer func() { rangeDone <- struct{}{} }()
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer srv.Close(context.Background())
	c := NewClient(ts.URL)
	ctx := context.Background()
	st := underlying(t, srv, "drop")
	cancelled := func() (n int64) {
		for _, sm := range st.Metrics().Shards {
			n += sm.Totals.Cancelled
		}
		return n
	}

	// disconnect runs steps 1–3 on a fresh session and reports whether
	// the disconnect provably beat chunk 4's admission.
	var sessions []string
	disconnect := func() bool {
		g := &gate{held: make(chan struct{}), release: make(chan struct{})}
		current.Store(g)
		defer close(g.release)
		sess, err := c.Begin(ctx, "drop", "")
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
		qctx, qcancel := context.WithCancel(ctx)
		defer qcancel()
		req, err := http.NewRequestWithContext(qctx, http.MethodPost,
			ts.URL+"/v1/stores/drop/sessions/"+sess+"/range",
			strings.NewReader(`{"lo":[0,0,0],"hi":[16,8,8]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		daemonCtx := <-rangeCtx
		if sc := bufio.NewScanner(resp.Body); !sc.Scan() {
			t.Fatalf("no first chunk: %v", sc.Err())
		}
		<-g.held
		// Disconnect: cancelling the request context closes the
		// connection, which cancels the handler's request context on the
		// daemon.
		qcancel()
		resp.Body.Close()
		<-daemonCtx.Done()
		return time.Since(g.chunk0) < window/2
	}

	for attempt := 1; ; attempt++ {
		before := cancelled()
		ordered := disconnect()
		<-rangeDone // the query has retired and is folded into its session
		if ordered {
			// The service replies to a dropped chunk just before it
			// counts it, so the counter may trail the handler by a moment.
			for deadline := time.Now().Add(5 * time.Second); cancelled() == before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("disconnect never reached the engine Cancelled counters")
				}
			}
			break
		}
		if attempt == 5 {
			t.Fatalf("host too slow: %d disconnects all took over %v to reach the daemon", attempt, window/2)
		}
	}

	// The partial queries must not break attribution: what the wire
	// sessions were handed still sums to what the services attributed.
	var wireStats multimap.Stats
	for _, sess := range sessions {
		ss, err := c.SessionStats(ctx, "drop", sess)
		if err != nil {
			t.Fatal(err)
		}
		wireStats.Accumulate(ss)
	}
	var attr multimap.Stats
	for _, sm := range st.Metrics().Shards {
		attr.Accumulate(sm.Totals.Attributed)
	}
	if wireStats.Cells != attr.Cells || wireStats.Requests != attr.Requests ||
		wireStats.CacheHits != attr.CacheHits || wireStats.CacheMisses != attr.CacheMisses {
		t.Fatalf("session sums %+v != attributed %+v", wireStats, attr)
	}
	if diff := math.Abs(wireStats.TotalMs - attr.TotalMs); diff > 1e-6*(1+wireStats.TotalMs) {
		t.Fatalf("attributed time drift %g", diff)
	}
	if wireStats.Cancelled == 0 {
		t.Fatalf("session stats did not record the drop: %+v", wireStats)
	}
}

// TestDeadlinePropagation proves a wire deadline becomes an engine
// deadline: a deadline_ms that has run out by the time the query's
// first chunk is admitted yields a deadline error and a
// DeadlineExceeded drop, not a served (or hung) request. The expiry is
// arranged, not hoped for: the store has a long admission window, a
// beam without a deadline opens one, and the deadline query is sent
// only once that beam is seen queued — so its first chunk sits in the
// queue while the loop sleeps the window out (a window already running
// is not shortened by a later arrival), 1 ms passes many times over,
// and the pass that finally admits the beam finds the chunk expired. If
// the deadline did not reach the engine the query would simply succeed,
// and the test fails.
func TestDeadlinePropagation(t *testing.T) {
	spec := testSpec("ddl")
	spec.BatchWindowUs = 250_000
	srv, ts, c := startDaemon(t, spec)
	defer ts.Close()
	defer srv.Close(context.Background())

	ctx := context.Background()
	holder, err := c.Begin(ctx, "ddl", "")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin(ctx, "ddl", "")
	if err != nil {
		t.Fatal(err)
	}
	beamDone := make(chan error, 1)
	go func() {
		_, err := c.Beam(ctx, "ddl", holder, 0, []int{0, 1, 1}, 0)
		beamDone <- err
	}()
	store := underlying(t, srv, "ddl")
	for waited := time.Now(); store.Metrics().QueueDepth == 0; time.Sleep(100 * time.Microsecond) {
		if time.Since(waited) > 10*time.Second {
			t.Fatal("the beam never reached the admission queue")
		}
	}
	_, err = c.RangeQuery(ctx, "ddl", sess, []int{0, 0, 0}, []int{16, 8, 8}, 1, nil)
	if err == nil {
		t.Fatal("range query under an expired 1 ms deadline succeeded: the wire deadline never reached the engine")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("unexpected error %v", err)
	}
	if err := <-beamDone; err != nil {
		t.Fatalf("the beam holding the window open: %v", err)
	}
	wireStats, err := c.SessionStats(ctx, "ddl", sess)
	if err != nil {
		t.Fatal(err)
	}
	if wireStats.DeadlineExceeded == 0 {
		t.Fatalf("no deadline drop recorded: %+v", wireStats)
	}
}

// TestEventsFeed checks the SSE stream interleaves metrics frames with
// lifecycle events and ends cleanly on server shutdown.
func TestEventsFeed(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("ev"))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type frame struct {
		event string
		data  []byte
	}
	frames := make(chan frame, 64)
	errCh := make(chan error, 1)
	go func() {
		errCh <- c.Events(ctx, 50, func(event string, data []byte) bool {
			frames <- frame{event, data}
			return true
		})
	}()

	// First frame is an immediate metrics snapshot naming the store.
	select {
	case f := <-frames:
		if f.event != "metrics" {
			t.Fatalf("first frame %q, want metrics", f.event)
		}
		var m MetricsResponse
		if err := json.Unmarshal(f.data, &m); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Stores["ev"]; !ok {
			t.Fatalf("metrics frame misses store: %s", f.data)
		}
	case <-ctx.Done():
		t.Fatal("no metrics frame")
	}

	// A session begin surfaces as a lifecycle event.
	if _, err := c.Begin(context.Background(), "ev", ""); err != nil {
		t.Fatal(err)
	}
	sawLifecycle := false
	timeout := time.After(5 * time.Second)
	for !sawLifecycle {
		select {
		case f := <-frames:
			if f.event == "lifecycle" {
				var ev Event
				if err := json.Unmarshal(f.data, &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Type == "session_begun" && ev.Store == "ev" {
					sawLifecycle = true
				}
			}
		case <-timeout:
			t.Fatal("no lifecycle frame for session begin")
		}
	}

	// Server shutdown ends the stream without an error.
	if err := srv.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil && ctx.Err() == nil {
			t.Fatalf("events stream errored: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("events stream did not end on shutdown")
	}
}

// TestPoolOverWire opens a pool and a tenant store through the wire
// and queries it like any private-volume store.
func TestPoolOverWire(t *testing.T) {
	srv, ts, c := startDaemon(t)
	defer ts.Close()
	defer srv.Close(context.Background())
	ctx := context.Background()

	if _, err := c.OpenPool(ctx, OpenPoolRequest{
		Name: "p", Drives: []string{"mediumtest", "mediumtest"}, AdjDepth: 32,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenStore(ctx, OpenStoreRequest{
		Name: "ten", Pool: "p", Mapping: "multimap", Dims: []int{8, 8, 4}, ChunkCells: 16,
	}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.Begin(ctx, "ten", "")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.RangeQuery(ctx, "ten", sess, []int{0, 0, 0}, []int{4, 4, 4}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stats.Cells == 0 {
		t.Fatalf("tenant query returned no cells: %+v", tr.Stats)
	}
	if err := c.CloseStore(ctx, "ten"); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRejectsUnknownFields: a request body — open, session-begin
// or per-op — carrying a removed knob ("pipeline", the "elevator"
// policy) or a misspelt field gets 400 naming it instead of running
// silently at another setting, and opens nothing.
func TestOpenRejectsUnknownFields(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("u"))
	defer ts.Close()
	defer srv.Close(context.Background())
	sess, err := c.Begin(context.Background(), "u", "")
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ path, body, field string }{
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"pipeline":2}`, "pipeline"},
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"cache_blokcs":4096}`, "cache_blokcs"},
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"policy":"elevator"}`, "elevator"},
		{"/v1/pools", `{"name":"p","drives":["mediumtest"],"adj_depth":32,"pipeline":2}`, "pipeline"},
		{"/v1/stores/u/sessions", `{"clas":"interactive"}`, "clas"},
		{"/v1/stores/u/sessions/" + sess + "/beam", `{"dim":0,"fixd":[0,0,0]}`, "fixd"},
		{"/v1/stores/u/sessions/" + sess + "/range", `{"lo":[0,0,0],"hi":[4,4,4],"chunk":8}`, "chunk"},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: error body: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, `"`+tc.field+`"`) {
			t.Errorf("%s with %q: status %d, error %q; want 400 naming the field", tc.path, tc.field, resp.StatusCode, er.Error)
		}
	}
	// One JSON value per body: what json.Unmarshal used to reject on the
	// per-op paths stays rejected.
	resp, err := http.Post(ts.URL+"/v1/stores/u/sessions/"+sess+"/fetch", "application/json", strings.NewReader(`{"cell":[0,0,0]} {}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing data after the body: status %d, want 400", resp.StatusCode)
	}
	stores, err := c.Stores(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stores) != 1 || stores[0].Sessions != 1 {
		t.Fatalf("rejected requests left stores or sessions behind: %+v", stores)
	}
}

// hostile serves one request straight through the handler — no socket,
// so a handler panic fails the test instead of being recovered and
// logged by net/http — and returns the status and the error body.
func hostile(t *testing.T, srv *Server, method, target string, body io.Reader) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(method, target, body))
	var er ErrorResponse
	if rec.Code/100 != 2 {
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Errorf("%s %s: status %d with body %q, not an ErrorResponse", method, target, rec.Code, rec.Body)
		}
	}
	return rec.Code, er.Error
}

// TestOversizedWireMs: a millisecond parameter large enough to overflow
// its conversion to a Duration is refused with 400 — interval_ms used
// to panic time.NewTicker with the negative result, deadline_ms to wrap
// into a deadline already past — and the ceiling itself is accepted.
func TestOversizedWireMs(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("ms"))
	defer ts.Close()
	defer srv.Close(context.Background())
	sess, err := c.Begin(context.Background(), "ms", "")
	if err != nil {
		t.Fatal(err)
	}
	beam := "/v1/stores/ms/sessions/" + sess + "/beam?deadline_ms="
	for _, tc := range []struct{ method, target, body, param string }{
		{"GET", "/v1/events?interval_ms=9223372036855", "", "interval_ms"},
		{"GET", "/v1/events?interval_ms=3600001", "", "interval_ms"},
		{"POST", beam + "9223372036855", `{"dim":0,"fixed":[0,1,1]}`, "deadline_ms"},
		{"POST", "/v1/stores/ms/sessions/" + sess + "/range?deadline_ms=3600001", `{"lo":[0,0,0],"hi":[2,2,2]}`, "deadline_ms"},
	} {
		code, msg := hostile(t, srv, tc.method, tc.target, strings.NewReader(tc.body))
		if code != http.StatusBadRequest || !strings.Contains(msg, tc.param) {
			t.Errorf("%s: status %d, error %q; want 400 naming %s", tc.target, code, msg, tc.param)
		}
	}
	if code, msg := hostile(t, srv, "POST", beam+"3600000", strings.NewReader(`{"dim":0,"fixed":[0,1,1]}`)); code != http.StatusOK {
		t.Errorf("deadline_ms at the ceiling: status %d, error %q", code, msg)
	}
}

// TestOversizedBodies: every route that decodes a body stops reading at
// maxBodyBytes. The bodies here are valid requests behind 2 MiB of
// whitespace, so a handler that reads them whole would act on them.
func TestOversizedBodies(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("big"))
	defer ts.Close()
	defer srv.Close(context.Background())
	ctx := context.Background()
	sess, err := c.Begin(ctx, "big", "")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat(" ", 2<<20)
	for _, tc := range []struct{ target, body string }{
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4]}`},
		{"/v1/pools", `{"name":"p","drives":["mediumtest"],"adj_depth":32}`},
		{"/v1/stores/big/sessions", `{"class":"interactive"}`},
		{"/v1/stores/big/sessions/" + sess + "/beam", `{"dim":0,"fixed":[0,1,1]}`},
		{"/v1/stores/big/sessions/" + sess + "/range", `{"lo":[0,0,0],"hi":[2,2,2]}`},
	} {
		if code, msg := hostile(t, srv, "POST", tc.target, strings.NewReader(pad+tc.body)); code/100 != 4 {
			t.Errorf("%s with a 2 MiB body: status %d, error %q; want 4xx", tc.target, code, msg)
		}
	}
	if st, err := c.Beam(ctx, "big", sess, 0, []int{0, 1, 1}, 0); err != nil || st.Cells == 0 {
		t.Errorf("store unusable after the oversized bodies: %+v, %v", st, err)
	}
	stores, err := c.Stores(ctx)
	srv.mu.Lock()
	pools := len(srv.pools)
	srv.mu.Unlock()
	if err != nil || len(stores) != 1 || stores[0].Sessions != 1 || pools != 0 {
		t.Errorf("oversized requests were acted on: stores %+v, %d pools, %v", stores, pools, err)
	}
}

// TestQoSClassWireBytes pins the open request's bytes across the move
// from the server's own ClassSpec mirror to the tagged engine type:
// the literals are the parent commit's encoding.
func TestQoSClassWireBytes(t *testing.T) {
	spec := testSpec("pin")
	for _, want := range []string{
		`{"name":"pin","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[16,8,8],"chunk_cells":16,"classes":[{"name":"interactive","weight":2}]}`,
		`{"name":"pin","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[16,8,8],"chunk_cells":16,"classes":[{"name":"interactive","weight":2},{"name":"ops","weight":1,"urgent":true}]}`,
	} {
		got, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("open request encodes as\n%s\nwant\n%s", got, want)
		}
		spec.Classes = append(spec.Classes, multimap.QoSClass{Name: "ops", Weight: 1, Urgent: true})
	}
}

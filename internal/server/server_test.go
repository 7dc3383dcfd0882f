package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
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
	srv.testChunkGate = func(_ context.Context, store, session string, seq int) {
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
// reaches the engine: a client that disconnects mid-stream cancels the
// query's context, the session counts the cancelled work, and the
// attribution invariant — summed session Stats equal
// ServiceTotals.Attributed — survives the partial query.
//
// Events fix the order. The handler is held at chunk 1's gate; the
// client drops the connection, and the test waits for the daemon's
// request context to be done before releasing the gate. With one chunk
// in flight the session checks its context before submitting chunk 2,
// finds it cancelled, and counts Cancelled. That the service loop
// counts a chunk that died while queued is pinned in internal/engine by
// TestDeadChunksDroppedAtAdmission.
func TestDisconnectCancelsAndAttributes(t *testing.T) {
	held := make(chan struct{})
	release := make(chan struct{})
	srv := New()
	srv.testChunkGate = func(_ context.Context, store, session string, seq int) {
		if seq == 1 {
			close(held)
			<-release
		}
	}
	if _, err := srv.OpenStore(context.Background(), testSpec("drop")); err != nil {
		t.Fatal(err)
	}
	// The range request hands the test its daemon-side context, and says
	// when its handler has returned.
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

	sess, err := c.Begin(ctx, "drop", "")
	if err != nil {
		t.Fatal(err)
	}
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
	<-held
	// Disconnect: cancelling the request context closes the connection,
	// which cancels the handler's request context on the daemon.
	qcancel()
	resp.Body.Close()
	<-daemonCtx.Done()
	close(release)
	<-rangeDone // the query has retired and is folded into its session

	// The partial query must not break attribution: what the wire
	// session was handed still sums to what the services attributed.
	wireStats, err := c.SessionStats(ctx, "drop", sess)
	if err != nil {
		t.Fatal(err)
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
// deadline: a range query under deadline_ms=1 yields a deadline error
// and a DeadlineExceeded count, not a served (or hung) request. The
// expiry is arranged by events: the handler's gate waits after chunk 0
// until the request's context is done, and with one chunk in flight
// chunk 1 cannot be submitted until the gate returns, by which time
// the deadline's timer has run and the context reports it. The
// query then ends with the deadline error whichever way it happens —
// dead on arrival, dropped at admission (pinned in internal/engine by
// TestDeadChunksDroppedAtAdmission), or caught before chunk 1. If the
// deadline did not reach the engine the query would simply succeed, and
// the test fails.
func TestDeadlinePropagation(t *testing.T) {
	srv := New()
	srv.testChunkGate = func(ctx context.Context, store, session string, seq int) {
		if seq != 0 {
			return
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("the 1 ms deadline had not fired 5 s after chunk 0")
		}
	}
	if _, err := srv.OpenStore(context.Background(), testSpec("ddl")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close(context.Background())
	c := NewClient(ts.URL)

	ctx := context.Background()
	sess, err := c.Begin(ctx, "ddl", "")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.RangeQuery(ctx, "ddl", sess, []int{0, 0, 0}, []int{16, 8, 8}, 1, nil)
	if err == nil {
		t.Fatal("range query under an expired 1 ms deadline succeeded: the wire deadline never reached the engine")
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("unexpected error %v", err)
	}
	wireStats, err := c.SessionStats(ctx, "ddl", sess)
	if err != nil {
		t.Fatal(err)
	}
	if wireStats.DeadlineExceeded == 0 {
		t.Fatalf("no deadline drop recorded: %+v", wireStats)
	}
}

// readEvents subscribes to the SSE feed and calls onFrame for each
// frame (event name plus raw JSON payload) until the context ends, the
// server closes the stream, or onFrame returns false.
func readEvents(ctx context.Context, c *Client, intervalMs int64, onFrame func(event string, data []byte) bool) error {
	url := fmt.Sprintf("%s/v1/events?interval_ms=%d", c.Base, intervalMs)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if !onFrame(event, []byte(strings.TrimPrefix(line, "data: "))) {
				return nil
			}
		}
	}
	return sc.Err()
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
		errCh <- readEvents(ctx, c, 50, func(event string, data []byte) bool {
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

// TestOddStoreNames: a store whose name must be escaped in a URL path
// opens, begins a session, streams a range and closes through Client,
// and closing it leaves the store "a" beside it open. "." and ".." are
// refused, because the router cleans them out of every path.
func TestOddStoreNames(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("a"))
	defer ts.Close()
	defer srv.Close(context.Background())
	ctx := context.Background()
	for _, name := range []string{"a/b", "a?b", "%zz", "a b"} {
		if _, err := c.OpenStore(ctx, testSpec(name)); err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		sess, err := c.Begin(ctx, name, "")
		if err != nil {
			t.Fatalf("begin on %q: %v", name, err)
		}
		tr, err := c.RangeQuery(ctx, name, sess, []int{0, 0, 0}, []int{4, 4, 4}, 0, nil)
		if err != nil || tr.Stats.Cells != 64 {
			t.Fatalf("range on %q: %+v, %v", name, tr.Stats, err)
		}
		if _, err := c.CloseSession(ctx, name, sess); err != nil {
			t.Fatalf("close session on %q: %v", name, err)
		}
		if err := c.CloseStore(ctx, name); err != nil {
			t.Fatalf("close %q: %v", name, err)
		}
		infos, err := c.Stores(ctx)
		if err != nil || len(infos) != 1 || infos[0].Name != "a" {
			t.Fatalf("after closing %q the daemon holds %+v (%v), want only \"a\"", name, infos, err)
		}
	}
	for _, name := range []string{".", ".."} {
		if _, err := c.OpenStore(ctx, testSpec(name)); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
			t.Errorf("open %q: %v, want a 400", name, err)
		}
	}
}

// TestOpenRejectsUnknownFields: a request body — open, session-begin
// or per-op — carrying a removed knob ("pipeline", "batch_window_us",
// "policy") or a misspelt field gets 400 naming it instead
// of running silently at another setting, and opens nothing.
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
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"batch_window_us":1000}`, "batch_window_us"},
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"cache_blokcs":4096}`, "cache_blokcs"},
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"policy":"elevator"}`, "policy"},
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"deadline_aging_us":2000}`, "deadline_aging_us"},
		{"/v1/stores", `{"name":"s","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4],"write_back":true,"wb_interval_us":3600000001}`, "wb_interval_us"},
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

// TestHostileOpens: an open whose grid overflows the cell count or the
// volume, on any layout, and one asking for more shards than the grid
// has Dim0 rows, are each a 400 that builds nothing sized by the
// request, and the daemon still serves its store afterwards. The
// MultiMap row used to abort the process.
func TestHostileOpens(t *testing.T) {
	srv, ts, c := startDaemon(t, testSpec("h"))
	defer ts.Close()
	defer srv.Close(context.Background())
	const open = `{"name":"x","disks":["atlas10k3"],"mapping":%q,"dims":%s%s}`
	type row struct{ body, want string }
	var rows []row
	for _, mapping := range []string{"naive", "zorder", "hilbert", "gray", "multimap"} {
		for _, dims := range []string{"[4294967296,4294967296]", "[2097152,2097152,2097152]", "[65536,65536]"} {
			rows = append(rows, row{fmt.Sprintf(open, mapping, dims, ""), "cells"})
		}
	}
	rows = append(rows, row{fmt.Sprintf(open, "multimap", "[4,4,4]", `,"shards":100000000`), "shards"})
	for _, r := range rows {
		code, msg := hostile(t, srv, "POST", "/v1/stores", strings.NewReader(r.body))
		if code != http.StatusBadRequest || !strings.Contains(msg, r.want) {
			t.Errorf("%s: status %d, error %q; want 400 naming %s", r.body, code, msg, r.want)
		}
	}
	ctx := context.Background()
	sess, err := c.Begin(ctx, "h", "")
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Beam(ctx, "h", sess, 1, []int{3, 0, 2}, 0); err != nil || st.Cells != 8 {
		t.Fatalf("daemon after the hostile opens: %+v, %v", st, err)
	}
	if stores, err := c.Stores(ctx); err != nil || len(stores) != 1 {
		t.Fatalf("hostile opens left stores behind: %+v, %v", stores, err)
	}
}

// TestOpenRejectsIgnoredFields: a store-spec field that another field
// leaves without effect is a 400 naming it, and opens nothing — a pool
// tenant's disks and adj_depth (the pool's drives and depth apply), and
// the write-back triggers without write_back. Each field is accepted
// where it applies.
func TestOpenRejectsIgnoredFields(t *testing.T) {
	srv := New()
	defer srv.Close(context.Background())
	if code, msg := hostile(t, srv, "POST", "/v1/pools",
		strings.NewReader(`{"name":"p","drives":["mediumtest"],"adj_depth":32}`)); code != http.StatusCreated {
		t.Fatalf("open pool: status %d, error %q", code, msg)
	}
	const tenant = `{"name":"x","pool":"p","mapping":"multimap","dims":[8,8,4]%s}`
	const private = `{"name":"x","disks":["mediumtest"],"adj_depth":32,"mapping":"multimap","dims":[8,8,4]%s}`
	for _, tc := range []struct{ body, field string }{
		{fmt.Sprintf(tenant, `,"disks":["mediumtest"]`), "disks"},
		{fmt.Sprintf(tenant, `,"adj_depth":32`), "adj_depth"},
		{fmt.Sprintf(private, `,"wb_watermark_blocks":64`), "wb_watermark_blocks"},
		{fmt.Sprintf(private, `,"wb_interval_us":1000`), "wb_interval_us"},
		{fmt.Sprintf(tenant, `,"write_back":false,"wb_interval_us":1000`), "wb_interval_us"},
	} {
		code, msg := hostile(t, srv, "POST", "/v1/stores", strings.NewReader(tc.body))
		if code != http.StatusBadRequest || !strings.Contains(msg, `"`+tc.field+`"`) {
			t.Errorf("%s: status %d, error %q; want 400 naming %q", tc.body, code, msg, tc.field)
		}
	}
	srv.mu.Lock()
	stores := len(srv.stores)
	srv.mu.Unlock()
	if stores != 0 {
		t.Fatalf("rejected specs left %d stores open", stores)
	}
	for i, body := range []string{
		fmt.Sprintf(tenant, ``),
		fmt.Sprintf(private, `,"write_back":true,"wb_watermark_blocks":64,"wb_interval_us":1000`),
	} {
		body = strings.Replace(body, `"x"`, fmt.Sprintf(`"ok%d"`, i), 1)
		if code, msg := hostile(t, srv, "POST", "/v1/stores", strings.NewReader(body)); code != http.StatusCreated {
			t.Errorf("%s: status %d, error %q; want 201", body, code, msg)
		}
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

// TestClientCellOps drives the client's cell operations — Insert past
// a block's capacity, FetchCell, Delete, Flush — on one wire session,
// and replays them on a lone session of an embedded twin store opened
// from the same request. Every op's Stats, and the session's lifetime
// Stats, must be == the twin's.
func TestClientCellOps(t *testing.T) {
	ctx := context.Background()
	spec := testSpec("cells")
	spec.Updatable = true
	srv, ts, c := startDaemon(t, spec)
	defer ts.Close()
	defer srv.Close(ctx)
	twinSrv := New()
	defer twinSrv.Close(ctx)
	if _, err := twinSrv.OpenStore(ctx, spec); err != nil {
		t.Fatal(err)
	}
	twin := underlying(t, twinSrv, "cells").Begin()
	sess, err := c.Begin(ctx, "cells", "")
	if err != nil {
		t.Fatal(err)
	}

	cell := []int{3, 2, 1}
	type op struct {
		name  string
		wire  func() (multimap.Stats, error)
		embed func() (multimap.Stats, error)
	}
	// 70 inserts overflow the default 64-point home block.
	var ops []op
	for i := 0; i < 70; i++ {
		ops = append(ops, op{fmt.Sprint("insert ", i),
			func() (multimap.Stats, error) { return c.Insert(ctx, "cells", sess, cell, 0) },
			func() (multimap.Stats, error) { return twin.Insert(ctx, cell) }})
	}
	ops = append(ops,
		op{"fetch",
			func() (multimap.Stats, error) { return c.FetchCell(ctx, "cells", sess, cell, 0) },
			func() (multimap.Stats, error) { return twin.FetchCell(ctx, cell) }},
		op{"delete",
			func() (multimap.Stats, error) { return c.Delete(ctx, "cells", sess, cell, 0) },
			func() (multimap.Stats, error) { return twin.Delete(ctx, cell) }},
		op{"flush",
			func() (multimap.Stats, error) { return multimap.Stats{}, c.Flush(ctx, "cells", sess) },
			func() (multimap.Stats, error) { return multimap.Stats{}, twin.Flush(ctx) }},
	)
	for _, o := range ops {
		got, err := o.wire()
		if err != nil {
			t.Fatalf("%s over the wire: %v", o.name, err)
		}
		want, err := o.embed()
		if err != nil {
			t.Fatalf("%s on the twin: %v", o.name, err)
		}
		if got != want {
			t.Fatalf("%s: wire stats %+v, twin %+v", o.name, got, want)
		}
		if o.name == "fetch" && got.Cells != 2 {
			t.Fatalf("fetch after 70 inserts read %d blocks, want a chain of 2", got.Cells)
		}
	}
	got, err := c.SessionStats(ctx, "cells", sess)
	if err != nil {
		t.Fatal(err)
	}
	if want := twin.Stats(); got != want {
		t.Fatalf("wire session lifetime %+v, twin %+v", got, want)
	}
}

// TestRemovedReadRoutes pins the read routes no client method, CI step
// or benchmark used: GET /v1/metrics is gone (404), and the GET
// siblings of DELETE /v1/stores/{store} and POST /v1/pools are 405s.
// A store's metrics are read from /v1/stores/{store}/metrics or the
// SSE metrics frames.
func TestRemovedReadRoutes(t *testing.T) {
	srv, ts, _ := startDaemon(t, testSpec("x"))
	defer ts.Close()
	defer srv.Close(context.Background())
	for path, code := range map[string]int{
		"/v1/metrics":          http.StatusNotFound,
		"/v1/stores/x":         http.StatusMethodNotAllowed,
		"/v1/pools":            http.StatusMethodNotAllowed,
		"/v1/stores/x/metrics": http.StatusOK,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != code {
			t.Errorf("GET %s: HTTP %d, want %d", path, resp.StatusCode, code)
		}
	}
}

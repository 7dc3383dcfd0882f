package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/server"
)

// Headers that carry a traced operation's identity across the wire, so
// the handler's spans join the client's.
const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// traceCtxKey carries an opTrace through server.Client's context.
type traceCtxKey struct{}

// opTrace identifies the operation a request belongs to and the span
// that caused it.
type opTrace struct {
	rec    *recorder
	op     string
	parent int64
}

// daemon is the in-process network front-end: server.New() behind a
// real net/http server on a loopback TCP listener. With a recorder set
// it wraps every traced request in server.handler and
// server.first_flush spans; without one requests pass straight through.
type daemon struct {
	srv   *server.Server
	hs    *http.Server
	ln    net.Listener
	conns atomic.Int64 // connections accepted
	done  chan error
	// rec is the recorder of the traced round in progress, nil
	// otherwise. Handler goroutines outlive any one round, so they look
	// it up per request.
	rec atomic.Pointer[recorder]
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.New(), ln: ln, done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d}
	go func() { d.done <- d.hs.Serve(countingListener{Listener: ln, n: &d.conns}) }()
	return d, nil
}

func (d *daemon) addr() string { return d.ln.Addr().String() }

// stop shuts the HTTP server down, waits for its accept loop to end,
// and closes every store and session the daemon still holds.
func (d *daemon) stop(ctx context.Context) error {
	err := d.hs.Shutdown(ctx)
	if serveErr := <-d.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if closeErr := d.srv.Close(ctx); err == nil {
		err = closeErr
	}
	return err
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op := r.Header.Get(headerOp)
	rec := d.rec.Load()
	if op == "" || rec == nil {
		d.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
	tw := &tracedWriter{ResponseWriter: w, rec: rec}
	id, start := rec.newID(), rec.now()
	d.srv.ServeHTTP(tw, r)
	// The span ends at the handler's last write, not its return: the
	// client can have read the reply and moved on before the handler
	// goroutine finishes unwinding, and a child may not outlive the
	// client.request span that caused it.
	end := tw.lastIO
	if end == 0 {
		end = rec.now()
	}
	rec.add(span{ID: id, Parent: parent, Name: "server.handler", Op: op, Start: start, End: end,
		Counts: map[string]int64{"flushes": tw.flushes, "bytes": tw.bytes}})
	if tw.firstFlush != 0 {
		rec.add(span{ID: rec.newID(), Parent: id, Name: "server.first_flush", Op: op,
			Start: start, End: tw.firstFlush})
	}
}

// tracedWriter notes when the handler first flushes and how much it
// writes. It forwards Flush, which server.handleRange needs to stream.
type tracedWriter struct {
	http.ResponseWriter
	rec        *recorder
	firstFlush int64
	lastIO     int64
	flushes    int64
	bytes      int64
}

func (t *tracedWriter) Write(p []byte) (int, error) {
	t.lastIO = t.rec.now()
	n, err := t.ResponseWriter.Write(p)
	t.bytes += int64(n)
	return n, err
}

func (t *tracedWriter) Flush() {
	t.lastIO = t.rec.now()
	if t.firstFlush == 0 {
		t.firstFlush = t.lastIO
	}
	t.flushes++
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// newWireClient builds one client's server.Client over its own
// transport: one connection per client, kept alive between requests.
func newWireClient(addr string) (*server.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := server.NewClient(addr)
	c.HTTPClient = &http.Client{Transport: tracingTransport{tr}}
	return c, tr
}

// tracingTransport records a client.request span around every request
// whose context carries an opTrace, from just before the request is
// sent until the caller closes the response body, and counts the bytes
// and NDJSON lines the body delivered.
type tracingTransport struct{ next http.RoundTripper }

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ot, ok := req.Context().Value(traceCtxKey{}).(opTrace)
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := ot.rec.newID()
	req = req.Clone(req.Context())
	req.Header.Set(headerOp, ot.op)
	req.Header.Set(headerSpan, strconv.FormatInt(id, 10))
	start := ot.rec.now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(bytes, lines int64) {
		counts := map[string]int64{"bytes": bytes, "lines": lines}
		if strings.HasSuffix(req.URL.Path, "/range") {
			counts["range"] = 1
		}
		ot.rec.add(span{ID: id, Parent: ot.parent, Name: "client.request", Op: ot.op,
			Start: start, End: ot.rec.now(), Counts: counts})
	}}
	return resp, nil
}

// countingBody counts what the caller reads and reports once on Close.
type countingBody struct {
	io.ReadCloser
	bytes, lines int64
	done         func(bytes, lines int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.bytes += int64(n)
	b.lines += int64(bytes.Count(p[:n], []byte{'\n'}))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.bytes, b.lines)
		b.done = nil
	}
	return err
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	multimap "repro"
)

// maxWireMs is the ceiling on deadline_ms and interval_ms: an hour is
// beyond any use of either, and a value near MaxInt64 would overflow
// the conversion to a Duration into a negative one.
const maxWireMs = 3_600_000

// parseWireMs reads a millisecond parameter in 1..maxWireMs.
func parseWireMs(name, raw string) (time.Duration, error) {
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 || ms > maxWireMs {
		return 0, fmt.Errorf("invalid %s %q: want 1..%d", name, raw, maxWireMs)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// wireContext derives the operation context from the wire: the base is
// the request's own context, so a client disconnect cancels the
// operation (the engine drops its queued chunks and counts them in
// Stats.Cancelled). A ?deadline_ms= query parameter or X-Deadline-Ms
// header adds a deadline, which the engine's deadline-aware admission
// treats as urgency exactly like an embedded caller's context
// deadline.
func wireContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	raw := r.URL.Query().Get("deadline_ms")
	if raw == "" {
		raw = r.Header.Get("X-Deadline-Ms")
	}
	if raw == "" {
		ctx, cancel := context.WithCancel(r.Context())
		return ctx, cancel, nil
	}
	d, err := parseWireMs("deadline_ms", raw)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// handleRange streams a range query as NDJSON: one {"chunk":...} line
// per retired plan chunk, written and flushed as the engine hands the
// chunk back — the response starts before the query finishes — then
// exactly one {"trailer":...} line with the aggregate Stats, the
// session's lifetime Stats, and the store's per-class totals. Errors
// after the header is sent (including cancellation) travel in the
// trailer.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	se, e := s.lookupSession(w, r)
	if e == nil {
		return
	}
	var req RangeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel, err := wireContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	chunks := 0
	onChunk := func(c multimap.RangeChunk) {
		_ = enc.Encode(StreamLine{Chunk: &c})
		if fl != nil {
			fl.Flush()
		}
		chunks++
		if s.testChunkGate != nil {
			s.testChunkGate(ctx, se.name, e.id, c.Seq)
		}
	}

	e.opMu.RLock()
	st, qerr := e.sess.RangeQueryStream(ctx, req.Lo, req.Hi, onChunk)
	trailer := RangeTrailer{
		Stats:        st,
		Chunks:       chunks,
		SessionStats: e.sess.Stats(),
		Classes:      se.store.ClassTotals(),
	}
	e.opMu.RUnlock()
	if qerr != nil {
		trailer.Error = qerr.Error()
	}
	_ = enc.Encode(StreamLine{Trailer: &trailer})
	if fl != nil {
		fl.Flush()
	}
}

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
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("invalid deadline_ms %q", raw)
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
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
	if err := DecodeStrict(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
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
		line := StreamLine{Chunk: &ChunkWire{Seq: c.Seq, Shard: c.Shard, Stats: statsWire(c.Stats)}}
		_ = enc.Encode(line)
		if fl != nil {
			fl.Flush()
		}
		chunks++
		if s.testChunkGate != nil {
			s.testChunkGate(se.name, e.id, c.Seq)
		}
	}

	e.opMu.RLock()
	st, qerr := e.sess.RangeQueryStream(ctx, req.Lo, req.Hi, onChunk)
	trailer := RangeTrailer{
		Stats:        statsWire(st),
		Chunks:       chunks,
		SessionStats: statsWire(e.sess.Stats()),
		Classes:      classWire(se.store.ClassTotals()),
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

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Event is one lifecycle event on the /v1/events feed.
type Event struct {
	Type    string `json:"type"`
	Store   string `json:"store,omitempty"`
	Session string `json:"session,omitempty"`
	Class   string `json:"class,omitempty"`
	Seq     int64  `json:"seq"`
}

// eventHub fans lifecycle events out to the open SSE connections. A
// subscriber that falls behind its buffer drops events rather than
// back-pressuring the serving path — the periodic metrics frames carry
// the ground-truth counters regardless.
type eventHub struct {
	mu   sync.Mutex
	seq  int64
	subs map[int]chan Event
	next int
}

func (h *eventHub) init() {
	h.subs = make(map[int]chan Event)
}

func (h *eventHub) publish(ev Event) {
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	for _, ch := range h.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	h.mu.Unlock()
}

func (h *eventHub) subscribe() (int, chan Event) {
	ch := make(chan Event, 64)
	h.mu.Lock()
	id := h.next
	h.next++
	h.subs[id] = ch
	h.mu.Unlock()
	return id, ch
}

func (h *eventHub) unsubscribe(id int) {
	h.mu.Lock()
	delete(h.subs, id)
	h.mu.Unlock()
}

// defaultMetricsInterval paces the periodic metrics frames on an event
// stream that didn't ask for a specific cadence.
const defaultMetricsInterval = time.Second

// handleEvents serves the live feed as Server-Sent Events. Two event
// kinds interleave on one stream:
//
//	event: metrics — a MetricsResponse snapshot of every open store
//	  (queue depths, admission batch sizes, cache hit rate, flush
//	  counters, latency percentiles), sent immediately on connect and
//	  then every interval_ms (default 1000, min 10, max 3600000).
//	event: lifecycle — an Event for each store/pool/session open and
//	  close, sent as it happens.
//
// The stream ends when the client disconnects or the daemon shuts
// down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	interval := defaultMetricsInterval
	if raw := r.URL.Query().Get("interval_ms"); raw != "" {
		d, err := parseWireMs("interval_ms", raw)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		interval = max(d, 10*time.Millisecond)
	}

	id, ch := s.events.subscribe()
	defer s.events.unsubscribe(id)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	if !send("metrics", s.metricsSnapshot()) {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		case ev := <-ch:
			if !send("lifecycle", ev) {
				return
			}
		case <-tick.C:
			if !send("metrics", s.metricsSnapshot()) {
				return
			}
		}
	}
}

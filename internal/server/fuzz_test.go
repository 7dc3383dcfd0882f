package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// fuzzRoutes are the per-session routes FuzzWireRequests posts bodies
// to, after the session-begin route (route 0) and before the events
// feed (the last route).
var fuzzRoutes = []string{"beam", "range", "fetch", "insert", "delete", "flush"}

// FuzzWireRequests feeds arbitrary request bodies and millisecond
// parameters through the daemon's handlers: session begin, the six
// session operations (their body, and deadline_ms) on one small
// updatable store, and interval_ms on the events feed under an already
// finished request context. No input may panic a handler or draw a
// status other than 200, 201, 400 or 404. Open-store and open-pool
// bodies go through DecodeStrict only: opening arbitrary dims would
// fuzz the allocator, not the decoder.
func FuzzWireRequests(f *testing.F) {
	srv := New()
	spec := testSpec("fz")
	spec.Dims = []int{8, 4, 4}
	spec.Updatable = true
	if _, err := srv.OpenStore(context.Background(), spec); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { srv.Close(context.Background()) })
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/stores/fz/sessions", nil))
	var info SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || rec.Code != http.StatusCreated {
		f.Fatalf("begin: status %d, %v", rec.Code, err)
	}
	ops := "/v1/stores/fz/sessions/" + info.Session + "/"

	f.Add(uint8(0), []byte(`{"class":"interactive"}`), "")
	f.Add(uint8(1), []byte(`{"dim":0,"fixed":[0,1,1]}`), "")
	f.Add(uint8(2), []byte(`{"lo":[0,0,0],"hi":[8,4,4]}`), "100")
	f.Add(uint8(3), []byte(`{"cell":[1,1,1]}`), "")
	f.Add(uint8(4), []byte(`{"cell":[7,3,3]}`), "")
	f.Add(uint8(5), []byte(`{"cell":[7,3,3]}`), "1")
	f.Add(uint8(6), []byte(nil), "")
	// The two hostile inputs fixed by hand before this target existed: an
	// interval_ms near 2⁶³ (it panicked time.NewTicker), and a body past
	// the 1 MiB cap (it was read whole).
	f.Add(uint8(len(fuzzRoutes)+1), []byte(nil), "9223372036855")
	f.Add(uint8(1), []byte(strings.Repeat(" ", maxBodyBytes)+`{"dim":0,"fixed":[0,1,1]}`), "")

	f.Fuzz(func(t *testing.T, route uint8, body []byte, ms string) {
		// Most bodies are not requests: only a panic fails these two.
		var open OpenStoreRequest
		_ = DecodeStrict(bytes.NewReader(body), &open)
		var pool OpenPoolRequest
		_ = DecodeStrict(bytes.NewReader(body), &pool)

		var req *http.Request
		switch r := int(route) % (len(fuzzRoutes) + 2); {
		case r == 0:
			req = httptest.NewRequest("POST", "/v1/stores/fz/sessions", bytes.NewReader(body))
		case r <= len(fuzzRoutes):
			target := ops + fuzzRoutes[r-1]
			if ms != "" {
				target += "?deadline_ms=" + url.QueryEscape(ms)
			}
			req = httptest.NewRequest("POST", target, bytes.NewReader(body))
		default:
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			req = httptest.NewRequest("GET", "/v1/events?interval_ms="+url.QueryEscape(ms), nil).WithContext(ctx)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		case http.StatusCreated:
			// Close a begun session again, so the corpus does not pile
			// sessions onto the store.
			var si SessionInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &si); err != nil {
				t.Fatalf("201 without a session: %q", rec.Body)
			}
			del := httptest.NewRecorder()
			srv.ServeHTTP(del, httptest.NewRequest("DELETE", "/v1/stores/fz/sessions/"+si.Session, nil))
			if del.Code != http.StatusOK {
				t.Fatalf("closing session %s: status %d", si.Session, del.Code)
			}
		default:
			t.Fatalf("%s %s: status %d, body %q", req.Method, req.URL, rec.Code, rec.Body)
		}
	})
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	multimap "repro"
)

// Server is the daemon's HTTP front-end: a registry of open stores,
// pools, and wire sessions behind a stdlib ServeMux. It implements
// http.Handler; the caller owns the listener (net/http.Server) and the
// process lifecycle, and calls Close to drain and release everything.
type Server struct {
	mu     sync.Mutex
	closed bool
	stores map[string]*storeEntry
	pools  map[string]*multimap.Pool

	// wg tracks in-flight HTTP requests so Close can drain them before
	// tearing down the engine underneath.
	wg   sync.WaitGroup
	done chan struct{}

	mux *http.ServeMux

	events eventHub

	// testChunkGate, when non-nil, is called after each streamed range
	// chunk has been written AND flushed to the client, with the
	// request's context. Tests use it to stall the query mid-stream and
	// prove the first chunk reaches the wire before the query completes,
	// or to wait for the request's deadline. Always nil in production.
	testChunkGate func(ctx context.Context, store, session string, seq int)
}

// storeEntry is one open store plus the resources the server owns on
// its behalf: the private volume (nil for pool tenants) or the pool
// that holds it as a tenant, and the wire sessions registered against
// it.
type storeEntry struct {
	name      string
	store     *multimap.Store
	vol       *multimap.Volume // nil when the store is a pool tenant
	pool      *multimap.Pool   // owning pool, nil for private volumes
	poolName  string           // its name, "" for private volumes
	updatable bool

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	nextSess int
}

// sessionEntry is one wire session. opMu serializes close against
// in-flight operations: operations hold the read side, close takes the
// write side, so a DELETE observed mid-query waits for (or, with the
// wire context cancelled, promptly gets) the operation's retirement.
type sessionEntry struct {
	id    string
	class string
	sess  *multimap.Session
	opMu  sync.RWMutex
}

// New builds an empty daemon front-end.
func New() *Server {
	s := &Server{
		stores: make(map[string]*storeEntry),
		pools:  make(map[string]*multimap.Pool),
		done:   make(chan struct{}),
		mux:    http.NewServeMux(),
	}
	s.events.init()
	s.routes()
	return s
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /v1/stores", s.handleListStores)
	s.mux.HandleFunc("POST /v1/stores", s.handleOpenStore)
	s.mux.HandleFunc("DELETE /v1/stores/{store}", s.handleCloseStore)
	s.mux.HandleFunc("GET /v1/stores/{store}/metrics", s.handleStoreMetrics)
	s.mux.HandleFunc("POST /v1/pools", s.handleOpenPool)
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions", s.handleBeginSession)
	s.mux.HandleFunc("GET /v1/stores/{store}/sessions/{session}", s.handleSessionInfo)
	s.mux.HandleFunc("DELETE /v1/stores/{store}/sessions/{session}", s.handleCloseSession)
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions/{session}/beam", opHandler(s, opBeam))
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions/{session}/range", s.handleRange)
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions/{session}/fetch", opHandler(s, opFetch))
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions/{session}/insert", opHandler(s, opInsert))
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions/{session}/delete", opHandler(s, opDelete))
	s.mux.HandleFunc("POST /v1/stores/{store}/sessions/{session}/flush", opHandler(s, opFlush))
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
}

// ServeHTTP admits the request into the drain group and dispatches it.
// After Close has begun, new requests are refused with 503 so the
// drain converges.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server shutting down"))
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	s.mux.ServeHTTP(w, r)
}

// Close drains and tears down: refuse new requests, wake every event
// stream, wait for in-flight requests (streamed queries retire or get
// cancelled by their clients), then close all sessions, stores,
// volumes, and pool tenants. Safe to call more than once.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()

	s.wg.Wait()

	s.mu.Lock()
	entries := make([]*storeEntry, 0, len(s.stores))
	for _, se := range s.stores {
		entries = append(entries, se)
	}
	s.stores = make(map[string]*storeEntry)
	s.pools = make(map[string]*multimap.Pool)
	s.mu.Unlock()

	var firstErr error
	for _, se := range entries {
		if err := s.closeEntry(ctx, se); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// closeEntry closes one store's sessions and then the store itself —
// private stores close their volume; pool tenants are destroyed in
// their pool so the pool's allocation maps stay consistent.
func (s *Server) closeEntry(ctx context.Context, se *storeEntry) error {
	se.mu.Lock()
	sessions := make([]*sessionEntry, 0, len(se.sessions))
	for _, e := range se.sessions {
		sessions = append(sessions, e)
	}
	se.sessions = make(map[string]*sessionEntry)
	se.mu.Unlock()

	var firstErr error
	for _, e := range sessions {
		e.opMu.Lock()
		if err := e.sess.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		e.opMu.Unlock()
	}
	if se.pool != nil {
		if err := se.pool.Destroy(ctx, se.name); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	se.store.Close()
	if se.vol != nil {
		se.vol.Close()
	}
	return firstErr
}

// ---- store and pool handlers ----

func (s *Server) handleListStores(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	infos := make([]StoreInfo, 0, len(s.stores))
	for _, se := range s.stores {
		infos = append(infos, s.storeInfoLocked(se))
	}
	s.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) storeInfoLocked(se *storeEntry) StoreInfo {
	se.mu.Lock()
	n := len(se.sessions)
	se.mu.Unlock()
	return StoreInfo{
		Name:      se.name,
		Mapping:   se.store.Mapping().String(),
		Dims:      se.store.Dims(),
		Shards:    se.store.NumShards(),
		Updatable: se.updatable,
		Pool:      se.poolName,
		Sessions:  n,
	}
}

// buildOptions translates the wire spec's knob fields into the
// library's functional options; zero values stay unset. A microsecond
// knob out of range fails, naming its field, and so does a field that
// another field's setting would leave without effect.
func buildOptions(req OpenStoreRequest) ([]multimap.Option, error) {
	if err := unusedField(req); err != nil {
		return nil, err
	}
	interval, err := wireUs("wb_interval_us", req.WBIntervalUs)
	if err != nil {
		return nil, err
	}
	var opts []multimap.Option
	if req.ChunkCells != 0 {
		opts = append(opts, multimap.WithChunkCells(req.ChunkCells))
	}
	if req.CacheBlocks != 0 {
		opts = append(opts, multimap.WithCache(req.CacheBlocks))
	}
	if req.MaxInflight != 0 {
		opts = append(opts, multimap.WithMaxInflight(req.MaxInflight))
	}
	if req.Shards != 0 {
		opts = append(opts, multimap.WithShards(req.Shards))
	}
	if req.WriteBack {
		opts = append(opts, multimap.WithWriteBack(req.WBWatermarkBlocks, interval))
	}
	for _, c := range req.Classes {
		opts = append(opts, multimap.WithQoSClass(c.Name, c.Weight, c.Urgent))
	}
	if req.FairQuantum != 0 {
		opts = append(opts, multimap.WithFairShare(req.FairQuantum))
	}
	if req.DefaultClass != "" {
		opts = append(opts, multimap.WithQoS(req.DefaultClass))
	}
	if req.Updatable {
		opts = append(opts, multimap.Updatable(multimap.UpdateOptions{}))
	}
	if req.CapacityBlocks != 0 {
		opts = append(opts, multimap.WithCapacity(req.CapacityBlocks))
	}
	if len(req.Drives) > 0 {
		opts = append(opts, multimap.WithDrives(req.Drives...))
	}
	return opts, nil
}

// unusedField refuses a known field that the spec would ignore, as
// DecodeStrict refuses an unknown one: a pool tenant's drives and
// adjacency depth are the pool's, and the write-back triggers need
// write-back on.
func unusedField(req OpenStoreRequest) error {
	switch {
	case req.Pool != "" && len(req.Disks) > 0:
		return fmt.Errorf(`"disks" is not used with "pool": a tenant lives on the pool's drives`)
	case req.Pool != "" && req.AdjDepth != 0:
		return fmt.Errorf(`"adj_depth" is not used with "pool": the pool sets the adjacency depth`)
	case !req.WriteBack && req.WBWatermarkBlocks != 0:
		return fmt.Errorf(`"wb_watermark_blocks" needs "write_back":true`)
	case !req.WriteBack && req.WBIntervalUs != 0:
		return fmt.Errorf(`"wb_interval_us" needs "write_back":true`)
	}
	return nil
}

// wireUs reads a microsecond knob of a store spec in 0..maxWireMs·1000,
// the ceiling deadline_ms has, for the same reason: a larger value
// would overflow the conversion to a Duration.
func wireUs(field string, us int64) (time.Duration, error) {
	if us < 0 || us > maxWireMs*1000 {
		return 0, fmt.Errorf("invalid %q %d: want 0..%d", field, us, maxWireMs*1000)
	}
	return time.Duration(us) * time.Microsecond, nil
}

// OpenStore opens a store from a wire spec and registers it; it backs
// POST /v1/stores and the daemon's -open boot flag.
func (s *Server) OpenStore(ctx context.Context, req OpenStoreRequest) (StoreInfo, error) {
	switch req.Name {
	case "":
		return StoreInfo{}, fmt.Errorf("store name required")
	case ".", "..":
		// The router cleans these segments out of every path, so the
		// store could never be reached or closed.
		return StoreInfo{}, fmt.Errorf("store name %q is not a path segment", req.Name)
	}
	kind, err := multimap.ParseMapping(req.Mapping)
	if err != nil {
		return StoreInfo{}, err
	}
	opts, err := buildOptions(req)
	if err != nil {
		return StoreInfo{}, err
	}

	var se *storeEntry
	if req.Pool != "" {
		s.mu.Lock()
		p := s.pools[req.Pool]
		s.mu.Unlock()
		if p == nil {
			return StoreInfo{}, fmt.Errorf("pool %q not open", req.Pool)
		}
		t, err := p.Create(ctx, req.Name, kind, req.Dims, opts...)
		if err != nil {
			return StoreInfo{}, err
		}
		se = &storeEntry{name: req.Name, store: t.Store(), pool: p, poolName: req.Pool}
	} else {
		if len(req.Disks) == 0 {
			return StoreInfo{}, fmt.Errorf("store spec needs disks or a pool")
		}
		models := make([]multimap.DiskModel, len(req.Disks))
		for i, d := range req.Disks {
			models[i] = multimap.DiskModel(d)
		}
		vol, err := multimap.OpenVolumeDepth(req.AdjDepth, models...)
		if err != nil {
			return StoreInfo{}, err
		}
		st, err := multimap.Open(vol, kind, req.Dims, opts...)
		if err != nil {
			vol.Close()
			return StoreInfo{}, err
		}
		se = &storeEntry{name: req.Name, store: st, vol: vol}
	}
	se.updatable = req.Updatable
	se.sessions = make(map[string]*sessionEntry)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.closeEntry(ctx, se)
		return StoreInfo{}, fmt.Errorf("server shutting down")
	}
	if _, dup := s.stores[req.Name]; dup {
		s.mu.Unlock()
		s.closeEntry(ctx, se)
		return StoreInfo{}, fmt.Errorf("store %q already open", req.Name)
	}
	s.stores[req.Name] = se
	info := s.storeInfoLocked(se)
	s.mu.Unlock()

	s.events.publish(Event{Type: "store_opened", Store: req.Name})
	return info, nil
}

// DecodeStrict decodes a request body — open, session-begin or per-op
// — strictly: an unknown field (a removed knob, or a misspelt one) is
// an error naming it, never a setting silently ignored, and so is
// anything after the one JSON value.
func DecodeStrict(r io.Reader, req any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("unexpected data after the request body")
	}
	return nil
}

// maxBodyBytes bounds every request body: the largest legitimate one
// is an open request with a few class names.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's body strictly into req, reading at
// most maxBodyBytes of it; on failure it answers 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, req any) bool {
	if err := DecodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (s *Server) handleOpenStore(w http.ResponseWriter, r *http.Request) {
	var req OpenStoreRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.OpenStore(r.Context(), req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) lookupStore(w http.ResponseWriter, r *http.Request) *storeEntry {
	name := r.PathValue("store")
	s.mu.Lock()
	se := s.stores[name]
	s.mu.Unlock()
	if se == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("store %q not open", name))
		return nil
	}
	return se
}

func (s *Server) handleCloseStore(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("store")
	s.mu.Lock()
	se := s.stores[name]
	delete(s.stores, name)
	s.mu.Unlock()
	if se == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("store %q not open", name))
		return
	}
	err := s.closeEntry(r.Context(), se)
	s.events.publish(Event{Type: "store_closed", Store: name})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"closed": name})
}

func (s *Server) handleStoreMetrics(w http.ResponseWriter, r *http.Request) {
	se := s.lookupStore(w, r)
	if se == nil {
		return
	}
	writeJSON(w, http.StatusOK, se.store.Metrics())
}

func (s *Server) handleOpenPool(w http.ResponseWriter, r *http.Request) {
	var req OpenPoolRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("pool name required"))
		return
	}
	popts := []multimap.PoolOption{}
	models := make([]multimap.DiskModel, len(req.Drives))
	for i, d := range req.Drives {
		models[i] = multimap.DiskModel(d)
	}
	popts = append(popts, multimap.WithPoolDrives(models...))
	if req.AdjDepth != 0 {
		popts = append(popts, multimap.WithPoolDepth(req.AdjDepth))
	}
	if req.AutoGrowBlocks != 0 {
		popts = append(popts, multimap.WithAutoGrow(req.AutoGrowBlocks))
	}
	p, err := multimap.OpenPool(popts...)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	if _, dup := s.pools[req.Name]; dup {
		s.mu.Unlock()
		writeErr(w, http.StatusBadRequest, fmt.Errorf("pool %q already open", req.Name))
		return
	}
	s.pools[req.Name] = p
	s.mu.Unlock()
	s.events.publish(Event{Type: "pool_opened", Store: req.Name})
	writeJSON(w, http.StatusCreated, poolInfo(req.Name, p))
}

func poolInfo(name string, p *multimap.Pool) PoolInfo {
	info := PoolInfo{Name: name, Tenants: []string{}, Usage: p.Usage()}
	for _, t := range p.Tenants() {
		info.Tenants = append(info.Tenants, t.Name)
	}
	sort.Strings(info.Tenants)
	return info
}

// ---- session handlers ----

func (s *Server) handleBeginSession(w http.ResponseWriter, r *http.Request) {
	se := s.lookupStore(w, r)
	if se == nil {
		return
	}
	var req BeginSessionRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	var sess *multimap.Session
	if req.Class != "" {
		sess = se.store.BeginQoS(req.Class)
	} else {
		sess = se.store.Begin()
	}
	se.mu.Lock()
	se.nextSess++
	id := fmt.Sprintf("s%d", se.nextSess)
	e := &sessionEntry{id: id, class: req.Class, sess: sess}
	se.sessions[id] = e
	se.mu.Unlock()
	s.events.publish(Event{Type: "session_begun", Store: se.name, Session: id, Class: req.Class})
	writeJSON(w, http.StatusCreated, s.sessionInfo(se, e))
}

func (s *Server) sessionInfo(se *storeEntry, e *sessionEntry) SessionInfo {
	return SessionInfo{
		Session: e.id,
		Store:   se.name,
		Class:   e.class,
		Stats:   e.sess.Stats(),
	}
}

func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*storeEntry, *sessionEntry) {
	se := s.lookupStore(w, r)
	if se == nil {
		return nil, nil
	}
	id := r.PathValue("session")
	se.mu.Lock()
	e := se.sessions[id]
	se.mu.Unlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session %q not open on store %q", id, se.name))
		return nil, nil
	}
	return se, e
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	se, e := s.lookupSession(w, r)
	if e == nil {
		return
	}
	writeJSON(w, http.StatusOK, s.sessionInfo(se, e))
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	se := s.lookupStore(w, r)
	if se == nil {
		return
	}
	id := r.PathValue("session")
	se.mu.Lock()
	e := se.sessions[id]
	delete(se.sessions, id)
	se.mu.Unlock()
	if e == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session %q not open on store %q", id, se.name))
		return
	}
	e.opMu.Lock()
	info := s.sessionInfo(se, e)
	err := e.sess.Close(r.Context())
	e.opMu.Unlock()
	s.events.publish(Event{Type: "session_closed", Store: se.name, Session: id, Class: e.class})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// ---- plain (non-streamed) session operations ----

// opHandler wraps one session operation: strict body decode (a
// malformed body or unknown field is a 400; no body is the zero
// request), wire context (disconnect + deadline), op lock, and the
// StatsResponse envelope. Operation errors travel in the envelope with
// status 200 — partial Stats (deadline expiry mid-plan) are a result,
// not a transport failure.
func opHandler[Req any](s *Server, op func(context.Context, *multimap.Session, Req) (multimap.Stats, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_, e := s.lookupSession(w, r)
		if e == nil {
			return
		}
		var req Req
		if r.ContentLength != 0 && !decodeBody(w, r, &req) {
			return
		}
		ctx, cancel, err := wireContext(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		defer cancel()
		e.opMu.RLock()
		st, opErr := op(ctx, e.sess, req)
		e.opMu.RUnlock()
		resp := StatsResponse{Stats: st}
		if opErr != nil {
			resp.Error = opErr.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

func opBeam(ctx context.Context, q *multimap.Session, req BeamRequest) (multimap.Stats, error) {
	return q.Beam(ctx, req.Dim, req.Fixed)
}

func opFetch(ctx context.Context, q *multimap.Session, req CellRequest) (multimap.Stats, error) {
	return q.FetchCell(ctx, req.Cell)
}

func opInsert(ctx context.Context, q *multimap.Session, req CellRequest) (multimap.Stats, error) {
	return q.Insert(ctx, req.Cell)
}

func opDelete(ctx context.Context, q *multimap.Session, req CellRequest) (multimap.Stats, error) {
	return q.Delete(ctx, req.Cell)
}

func opFlush(ctx context.Context, q *multimap.Session, _ struct{}) (multimap.Stats, error) {
	return multimap.Stats{}, q.Flush(ctx)
}

// ---- metrics ----

func (s *Server) metricsSnapshot() MetricsResponse {
	s.mu.Lock()
	entries := make(map[string]*storeEntry, len(s.stores))
	for name, se := range s.stores {
		entries[name] = se
	}
	s.mu.Unlock()
	resp := MetricsResponse{Stores: make(map[string]multimap.Metrics, len(entries))}
	for name, se := range entries {
		resp.Stores[name] = se.store.Metrics()
	}
	return resp
}

// ---- small helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

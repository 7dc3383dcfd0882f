package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	multimap "repro"
)

// Client speaks the daemon's wire protocol. The zero HTTPClient means
// http.DefaultClient; Base accepts "host:port" or a full http:// URL.
type Client struct {
	Base       string
	HTTPClient *http.Client
}

// NewClient builds a client for a daemon at addr ("host:port" or
// "http://host:port").
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{Base: strings.TrimRight(addr, "/")}
}

func (c *Client) hc() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do runs one JSON round trip; out may be nil to discard the body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var er ErrorResponse
	if json.Unmarshal(data, &er) == nil && er.Error != "" {
		return fmt.Errorf("daemon: %s (HTTP %d)", er.Error, resp.StatusCode)
	}
	return fmt.Errorf("daemon: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
}

// OpenStore opens a store on the daemon.
func (c *Client) OpenStore(ctx context.Context, req OpenStoreRequest) (StoreInfo, error) {
	var info StoreInfo
	err := c.do(ctx, http.MethodPost, "/v1/stores", req, &info)
	return info, err
}

// CloseStore closes a store (and its sessions) on the daemon.
func (c *Client) CloseStore(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/stores/"+name, nil, nil)
}

// Stores lists the open stores.
func (c *Client) Stores(ctx context.Context) ([]StoreInfo, error) {
	var infos []StoreInfo
	err := c.do(ctx, http.MethodGet, "/v1/stores", nil, &infos)
	return infos, err
}

// OpenPool opens a multi-tenant pool on the daemon.
func (c *Client) OpenPool(ctx context.Context, req OpenPoolRequest) (PoolInfo, error) {
	var info PoolInfo
	err := c.do(ctx, http.MethodPost, "/v1/pools", req, &info)
	return info, err
}

// Begin opens a session on a store; class "" selects the store's
// default QoS class. It returns the wire session ID.
func (c *Client) Begin(ctx context.Context, store, class string) (string, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/stores/"+store+"/sessions",
		BeginSessionRequest{Class: class}, &info)
	return info.Session, err
}

// CloseSession closes a session, flushing its write-back residue, and
// returns its lifetime stats.
func (c *Client) CloseSession(ctx context.Context, store, session string) (multimap.Stats, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodDelete, "/v1/stores/"+store+"/sessions/"+session, nil, &info)
	return info.Stats, err
}

// SessionStats fetches a session's lifetime stats without closing it.
func (c *Client) SessionStats(ctx context.Context, store, session string) (multimap.Stats, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/stores/"+store+"/sessions/"+session, nil, &info)
	return info.Stats, err
}

// deadlineSuffix renders the wire deadline for an operation URL.
func deadlineSuffix(deadlineMs int64) string {
	if deadlineMs <= 0 {
		return ""
	}
	return fmt.Sprintf("?deadline_ms=%d", deadlineMs)
}

// op runs one plain session operation and unwraps the envelope:
// operation errors arrive as wire text alongside any (partial) Stats.
func (c *Client) op(ctx context.Context, store, session, op string, deadlineMs int64, in any) (multimap.Stats, error) {
	var resp StatsResponse
	path := "/v1/stores/" + store + "/sessions/" + session + "/" + op + deadlineSuffix(deadlineMs)
	if err := c.do(ctx, http.MethodPost, path, in, &resp); err != nil {
		return multimap.Stats{}, err
	}
	if resp.Error != "" {
		return resp.Stats, fmt.Errorf("%s", resp.Error)
	}
	return resp.Stats, nil
}

// Beam runs a beam query on a wire session. deadlineMs <= 0 means no
// deadline.
func (c *Client) Beam(ctx context.Context, store, session string, dim int, fixed []int, deadlineMs int64) (multimap.Stats, error) {
	return c.op(ctx, store, session, "beam", deadlineMs, BeamRequest{Dim: dim, Fixed: fixed})
}

// FetchCell fetches one cell's chain on a wire session.
func (c *Client) FetchCell(ctx context.Context, store, session string, cell []int, deadlineMs int64) (multimap.Stats, error) {
	return c.op(ctx, store, session, "fetch", deadlineMs, CellRequest{Cell: cell})
}

// Insert inserts a point into a cell on a wire session.
func (c *Client) Insert(ctx context.Context, store, session string, cell []int, deadlineMs int64) (multimap.Stats, error) {
	return c.op(ctx, store, session, "insert", deadlineMs, CellRequest{Cell: cell})
}

// Delete removes a point from a cell on a wire session.
func (c *Client) Delete(ctx context.Context, store, session string, cell []int, deadlineMs int64) (multimap.Stats, error) {
	return c.op(ctx, store, session, "delete", deadlineMs, CellRequest{Cell: cell})
}

// Flush commits the session's buffered write-back residue.
func (c *Client) Flush(ctx context.Context, store, session string) error {
	_, err := c.op(ctx, store, session, "flush", 0, nil)
	return err
}

// RangeQuery streams a range query. onChunk (may be nil) observes each
// chunk line as it arrives — before the query has finished on the
// daemon. The returned trailer carries the aggregate Stats, the
// session's lifetime Stats, and per-class totals; a query error is
// surfaced as the error return after any partial chunks.
func (c *Client) RangeQuery(ctx context.Context, store, session string, lo, hi []int, deadlineMs int64, onChunk func(multimap.RangeChunk)) (RangeTrailer, error) {
	data, err := json.Marshal(RangeRequest{Lo: lo, Hi: hi})
	if err != nil {
		return RangeTrailer{}, err
	}
	path := c.Base + "/v1/stores/" + store + "/sessions/" + session + "/range" + deadlineSuffix(deadlineMs)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(data))
	if err != nil {
		return RangeTrailer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc().Do(req)
	if err != nil {
		return RangeTrailer{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return RangeTrailer{}, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var line StreamLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return RangeTrailer{}, fmt.Errorf("bad stream line: %w", err)
		}
		switch {
		case line.Chunk != nil:
			if onChunk != nil {
				onChunk(*line.Chunk)
			}
		case line.Trailer != nil:
			tr := *line.Trailer
			if tr.Error != "" {
				return tr, fmt.Errorf("%s", tr.Error)
			}
			return tr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return RangeTrailer{}, err
	}
	return RangeTrailer{}, fmt.Errorf("stream ended without trailer")
}

// Metrics fetches one store's metrics snapshot.
func (c *Client) Metrics(ctx context.Context, store string) (multimap.Metrics, error) {
	var m multimap.Metrics
	err := c.do(ctx, http.MethodGet, "/v1/stores/"+store+"/metrics", nil, &m)
	return m, err
}

// Events subscribes to the SSE feed and calls onFrame for each frame
// (event name plus raw JSON payload) until the context ends, the
// server closes the stream, or onFrame returns false.
func (c *Client) Events(ctx context.Context, intervalMs int64, onFrame func(event string, data []byte) bool) error {
	path := c.Base + "/v1/events"
	if intervalMs > 0 {
		path += fmt.Sprintf("?interval_ms=%d", intervalMs)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
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
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
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

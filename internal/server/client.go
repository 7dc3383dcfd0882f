package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// do runs one JSON round trip to target, a full URL; out may be nil
// to discard the body.
func (c *Client) do(ctx context.Context, method, target string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, body)
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
	err := c.do(ctx, http.MethodPost, c.Base+"/v1/stores", req, &info)
	return info, err
}

// CloseStore closes a store (and its sessions) on the daemon.
func (c *Client) CloseStore(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, c.storeURL(name, ""), nil, nil)
}

// Stores lists the open stores.
func (c *Client) Stores(ctx context.Context) ([]StoreInfo, error) {
	var infos []StoreInfo
	err := c.do(ctx, http.MethodGet, c.Base+"/v1/stores", nil, &infos)
	return infos, err
}

// OpenPool opens a multi-tenant pool on the daemon.
func (c *Client) OpenPool(ctx context.Context, req OpenPoolRequest) (PoolInfo, error) {
	var info PoolInfo
	err := c.do(ctx, http.MethodPost, c.Base+"/v1/pools", req, &info)
	return info, err
}

// Begin opens a session on a store; class "" selects the store's
// default QoS class. It returns the wire session ID.
func (c *Client) Begin(ctx context.Context, store, class string) (string, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodPost, c.storeURL(store, "/sessions"),
		BeginSessionRequest{Class: class}, &info)
	return info.Session, err
}

// CloseSession closes a session, flushing its write-back residue, and
// returns its lifetime stats.
func (c *Client) CloseSession(ctx context.Context, store, session string) (multimap.Stats, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodDelete, c.sessionURL(store, session, ""), nil, &info)
	return info.Stats, err
}

// SessionStats fetches a session's lifetime stats without closing it.
func (c *Client) SessionStats(ctx context.Context, store, session string) (multimap.Stats, error) {
	var info SessionInfo
	err := c.do(ctx, http.MethodGet, c.sessionURL(store, session, ""), nil, &info)
	return info.Stats, err
}

// storeURL is a store's URL with tail appended. Names are escaped, so
// a store named "a?b" or "a/b" is one path segment, which the daemon's
// router unescapes.
func (c *Client) storeURL(store, tail string) string {
	return c.Base + "/v1/stores/" + url.PathEscape(store) + tail
}

// sessionURL is a session's URL with tail appended.
func (c *Client) sessionURL(store, session, tail string) string {
	return c.Base + "/v1/stores/" + url.PathEscape(store) + "/sessions/" + url.PathEscape(session) + tail
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
	target := c.sessionURL(store, session, "/"+op+deadlineSuffix(deadlineMs))
	if err := c.do(ctx, http.MethodPost, target, in, &resp); err != nil {
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
// surfaced as the error return after any partial chunks. A stream line
// longer than 1 MiB, its newline included, fails the query with
// bufio.ErrTooLong.
func (c *Client) RangeQuery(ctx context.Context, store, session string, lo, hi []int, deadlineMs int64, onChunk func(multimap.RangeChunk)) (RangeTrailer, error) {
	data, err := json.Marshal(RangeRequest{Lo: lo, Hi: hi})
	if err != nil {
		return RangeTrailer{}, err
	}
	target := c.sessionURL(store, session, "/range"+deadlineSuffix(deadlineMs))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(data))
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
	return decodeStream(resp.Body, onChunk)
}

// decodeStream reads a range stream from r, handing each chunk line to
// onChunk (may be nil) until the trailer. A bufio.Scanner frames the
// lines, failing one longer than 1 MiB, its newline included, with
// bufio.ErrTooLong. One json.Decoder decodes every line into one chunk,
// so a line allocates nothing. The chunk is reset to Seq -1 before each
// line, and one that keeps it is no chunk: the daemon writes "seq" in
// every chunk. A line that is not exactly one JSON value fails with the
// error json.Unmarshal gives for it, which the decoder's own would not
// match.
func decodeStream(r io.Reader, onChunk func(multimap.RangeChunk)) (RangeTrailer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	var rd bytes.Reader
	dec := json.NewDecoder(&rd)
	var chunk multimap.RangeChunk
	var line StreamLine
	for fed := int64(0); sc.Scan(); {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		rd.Reset(raw)
		fed += int64(len(raw))
		line, chunk = StreamLine{Chunk: &chunk}, multimap.RangeChunk{Seq: -1}
		if err := dec.Decode(&line); err != nil || dec.InputOffset() != fed {
			return RangeTrailer{}, fmt.Errorf("bad stream line: %w", json.Unmarshal(raw, new(StreamLine)))
		}
		switch {
		case line.Chunk != nil && chunk.Seq != -1:
			if onChunk != nil {
				onChunk(chunk)
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
	err := c.do(ctx, http.MethodGet, c.storeURL(store, "/metrics"), nil, &m)
	return m, err
}

// Package client is the Go client for a dpserver HTTP endpoint (the
// distpermd daemon): typed kNN/range queries in single and batched form,
// inserts and deletes, stats, index introspection and health probes.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
)

// Client talks to one dpserver base URL. The zero HTTPClient means
// http.DefaultClient; set a custom one for timeouts or transport reuse
// before the first call.
type Client struct {
	// Base is the server's base URL, e.g. "http://localhost:7411".
	Base string
	// HTTPClient overrides http.DefaultClient when non-nil.
	HTTPClient *http.Client
}

// New returns a client for the server at base (scheme://host:port, no
// trailing slash required).
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// knn posts one /v1/knn request: qs[0] alone in the single form when
// single, else all of qs.
func (c *Client) knn(ctx context.Context, qs []distperm.Point, single bool, k int, approx bool, nprobe int) (resp dpserver.QueryResponse, err error) {
	req := dpserver.KNNRequest{K: k, Approx: approx, NProbe: nprobe}
	if req.Query, req.Queries, err = encodeQueries(qs, single); err == nil {
		err = c.post(ctx, "/v1/knn", req, &resp)
	}
	return resp, err
}

// rng is knn for /v1/range.
func (c *Client) rng(ctx context.Context, qs []distperm.Point, single bool, r float64) (resp dpserver.QueryResponse, err error) {
	req := dpserver.RangeRequest{R: r}
	if req.Query, req.Queries, err = encodeQueries(qs, single); err == nil {
		err = c.post(ctx, "/v1/range", req, &resp)
	}
	return resp, err
}

// encodeQueries puts a query request's points on the wire: qs[0] alone
// when single, else all of qs.
func encodeQueries(qs []distperm.Point, single bool) (one json.RawMessage, all []json.RawMessage, err error) {
	if single {
		one, err = dpserver.EncodePoint(qs[0])
	} else {
		all, err = encodeAll(qs)
	}
	return one, all, err
}

// KNN answers one kNN query — the request shape that flows through the
// server's result cache.
func (c *Client) KNN(ctx context.Context, q distperm.Point, k int) ([]distperm.Result, error) {
	resp, err := c.knn(ctx, []distperm.Point{q}, true, k, false, 0)
	return resp.Results, err
}

// KNNBatch answers one kNN query per point of qs in one request, submitted
// to the engine as one batch.
func (c *Client) KNNBatch(ctx context.Context, qs []distperm.Point, k int) ([][]distperm.Result, error) {
	resp, err := c.knn(ctx, qs, false, k, false, 0)
	return resp.Batches, err
}

// KNNApprox answers one approximate kNN query: the server probes the
// nprobe nearest permutation-prefix buckets (0 selects the server default;
// ≥ the directory size degrades to the exact scan). The returned ApproxWire
// carries the probe accounting (probed buckets, candidate fraction, and
// whether the answer degraded to exact).
func (c *Client) KNNApprox(ctx context.Context, q distperm.Point, k, nprobe int) ([]distperm.Result, *dpserver.ApproxWire, error) {
	resp, err := c.knn(ctx, []distperm.Point{q}, true, k, true, nprobe)
	return resp.Results, resp.Approx, err
}

// KNNApproxBatch answers one approximate kNN query per point of qs in one
// request; the ApproxWire aggregates the probe accounting over the batch.
func (c *Client) KNNApproxBatch(ctx context.Context, qs []distperm.Point, k, nprobe int) ([][]distperm.Result, *dpserver.ApproxWire, error) {
	resp, err := c.knn(ctx, qs, false, k, true, nprobe)
	return resp.Batches, resp.Approx, err
}

// Range answers one range query of radius r.
func (c *Client) Range(ctx context.Context, q distperm.Point, r float64) ([]distperm.Result, error) {
	resp, err := c.rng(ctx, []distperm.Point{q}, true, r)
	return resp.Results, err
}

// RangeBatch answers one range query of radius r per point of qs in one
// request.
func (c *Client) RangeBatch(ctx context.Context, qs []distperm.Point, r float64) ([][]distperm.Result, error) {
	resp, err := c.rng(ctx, qs, false, r)
	return resp.Batches, err
}

// Insert adds one point to a mutable server's logical point set and
// returns the stable global ID it was granted. The point is visible to
// every query issued after Insert returns.
func (c *Client) Insert(ctx context.Context, p distperm.Point) (int, error) {
	raw, err := dpserver.EncodePoint(p)
	if err != nil {
		return 0, err
	}
	var resp dpserver.MutateResponse
	if err := c.post(ctx, "/v1/insert", dpserver.InsertRequest{Point: raw}, &resp); err != nil {
		return 0, err
	}
	if resp.ID == nil {
		return 0, fmt.Errorf("client: insert answer carried no id")
	}
	return *resp.ID, nil
}

// InsertBatch adds every point of ps in one request and returns their
// global IDs in order.
func (c *Client) InsertBatch(ctx context.Context, ps []distperm.Point) ([]int, error) {
	raws, err := encodeAll(ps)
	if err != nil {
		return nil, err
	}
	var resp dpserver.MutateResponse
	if err := c.post(ctx, "/v1/insert", dpserver.InsertRequest{Points: raws}, &resp); err != nil {
		return nil, err
	}
	if len(resp.IDs) != len(ps) {
		return nil, fmt.Errorf("client: %d ids for %d inserted points", len(resp.IDs), len(ps))
	}
	return resp.IDs, nil
}

// Delete removes the live point with the given global ID from a mutable
// server.
func (c *Client) Delete(ctx context.Context, id int) error {
	var resp dpserver.MutateResponse
	return c.post(ctx, "/v1/delete", dpserver.DeleteRequest{ID: &id}, &resp)
}

// DeleteBatch removes every listed ID in one request.
func (c *Client) DeleteBatch(ctx context.Context, ids []int) error {
	var resp dpserver.MutateResponse
	return c.post(ctx, "/v1/delete", dpserver.DeleteRequest{IDs: ids}, &resp)
}

// Stats fetches the engine and server counters.
func (c *Client) Stats(ctx context.Context) (dpserver.StatsResponse, error) {
	var resp dpserver.StatsResponse
	err := c.get(ctx, "/v1/stats", &resp)
	return resp, err
}

// IndexInfo fetches what the server is serving.
func (c *Client) IndexInfo(ctx context.Context) (dpserver.IndexInfo, error) {
	var resp dpserver.IndexInfo
	err := c.get(ctx, "/v1/index", &resp)
	return resp, err
}

// Health probes /healthz (liveness: the process answers HTTP, possibly
// still loading its store).
func (c *Client) Health(ctx context.Context) error {
	var resp struct {
		Status string `json:"status"`
	}
	if err := c.get(ctx, "/healthz", &resp); err != nil {
		return err
	}
	if resp.Status != "ok" {
		return fmt.Errorf("client: health status %q", resp.Status)
	}
	return nil
}

// Ready probes /readyz (readiness: the store is loaded and queries will be
// answered). A loading daemon fails this with its 503 while passing Health.
func (c *Client) Ready(ctx context.Context) error {
	var resp struct {
		Status string `json:"status"`
	}
	if err := c.get(ctx, "/readyz", &resp); err != nil {
		return err
	}
	if resp.Status != "ready" {
		return fmt.Errorf("client: readiness status %q", resp.Status)
	}
	return nil
}

// post sends body to path and decodes the answer into out. A query request
// is marshalled by its own MarshalJSON, sparing the pass json.Marshal makes
// over what a MarshalJSON returns.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	var payload []byte
	var err error
	if m, ok := body.(json.Marshaler); ok {
		payload, err = m.MarshalJSON()
	} else {
		payload, err = json.Marshal(body)
	}
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e dpserver.ErrorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("client: %s %s: %s (HTTP %d)", req.Method, req.URL.Path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("client: %s %s: HTTP %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if u, ok := out.(json.Unmarshaler); ok {
		// A query answer: read whole into a pooled buffer and parsed by the
		// codec behind QueryResponse.UnmarshalJSON.
		buf := bodies.Get().(*bytes.Buffer)
		defer putBody(buf)
		buf.Reset()
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		return u.UnmarshalJSON(buf.Bytes())
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// bodies pools the buffers query answers are read into; one grown past 64
// KiB is left to the collector, so that one large batch cannot pin it.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBody(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		bodies.Put(b)
	}
}

func encodeAll(qs []distperm.Point) ([]json.RawMessage, error) {
	raws := make([]json.RawMessage, len(qs))
	for i, q := range qs {
		raw, err := dpserver.EncodePoint(q)
		if err != nil {
			return nil, fmt.Errorf("queries[%d]: %w", i, err)
		}
		raws[i] = raw
	}
	return raws, nil
}

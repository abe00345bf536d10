// Package client is a typed Go client for the reservoird HTTP service
// (internal/server): create streams, push points, run recent-horizon
// queries and move checkpoints, without hand-rolling JSON.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/httpapi"
	"biasedres/internal/query"
	"biasedres/internal/wire"
)

// Client talks to one reservoird instance.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (e.g. for custom
// timeouts or transports).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithTimeout bounds every request at d, independent of the underlying
// http.Client's own timeout: each call runs under a context deadline, so
// a hung or unresponsive server cannot wedge the caller (or a Batcher's
// flush loop) for longer than d. Zero or negative disables the
// per-request bound.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{
		base: u.Scheme + "://" + u.Host,
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// APIError is a non-2xx response from the service.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint on 429 backpressure
	// responses (zero when absent): how long to wait before resending the
	// batch. Batcher honors it automatically.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

func (c *Client) do(method, path string, body, out any) error {
	return c.doCtx(context.Background(), method, path, body, out)
}

func (c *Client) doCtx(ctx context.Context, method, path string, body, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		blob, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		var msg httpapi.ErrorBody
		_ = json.Unmarshal(raw, &msg)
		if msg.Error == "" {
			msg.Error = string(raw)
		}
		apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg.Error}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if rawOut, ok := out.(*[]byte); ok {
		*rawOut = raw
		return nil
	}
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// StreamConfig is the service's create request. Tiers > 1 asks for a
// multi-horizon ladder: that many reservoirs at geometrically-spaced λ
// (consecutive tiers TierRatio apart, default 8), each holding Capacity
// points, with horizon-carrying queries routed to the best-covering tier.
type StreamConfig = core.SamplerConfig

// CreateStream registers a new named stream.
func (c *Client) CreateStream(name string, cfg StreamConfig) error {
	return c.CreateStreamContext(context.Background(), name, cfg)
}

// DeleteStream drops a stream.
func (c *Client) DeleteStream(name string) error {
	return c.DeleteStreamContext(context.Background(), name)
}

// ListStreams returns the registered stream names.
func (c *Client) ListStreams() ([]string, error) {
	return c.ListStreamsContext(context.Background())
}

// Point is one point to ingest. Label and TS are optional.
type Point = wire.IngestPoint

// Push ingests a batch of points. Against a synchronous server it returns
// the stream's total processed count; a server running sharded async
// ingest answers 202 Accepted instead and processed is 0 (the points are
// queued, not yet applied), as it is through a federation coordinator,
// whose points land on several shards. Use a Batcher to buffer points
// client-side and to retry automatically on 429 backpressure.
func (c *Client) Push(name string, pts []Point) (processed uint64, err error) {
	return c.PushContext(context.Background(), name, pts)
}

// PushContext is Push bounded by ctx: the request is abandoned (and not
// retried by a Batcher) once ctx is done.
func (c *Client) PushContext(ctx context.Context, name string, pts []Point) (processed uint64, err error) {
	buf := pushBufs.Get().(*[]byte)
	body, err := appendPush((*buf)[:0], pts)
	if err != nil {
		return 0, fmt.Errorf("client: encoding request: %w", err)
	}
	var out httpapi.Ingested
	err = c.doCtx(ctx, http.MethodPost, "/streams/"+url.PathEscape(name)+"/points", body, &out)
	// A transport may still read the body after an early reply; a 2xx
	// comes only once the server has read it whole, so reuse only then.
	if err == nil {
		*buf = body
		pushBufs.Put(buf)
	}
	return out.Processed, err
}

// pushBufs recycles PushContext's request bodies.
var pushBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendPush appends the ingest body {"points":[…]} for pts to b, with
// the Point struct tags' fields, order and omitempty rules but without
// reflection. Floats take their shortest round-trip form, strconv's
// bytes written by wire.AppendFloat, so the server decodes them bit for
// bit; like json.Marshal it refuses NaN and ±Inf.
func appendPush(b []byte, pts []Point) ([]byte, error) {
	if pts == nil {
		return append(b, `{"points":null}`...), nil
	}
	var err error
	num := func(v float64) {
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = &json.UnsupportedValueError{Str: string(wire.AppendFloat(nil, v))}
		}
		b = wire.AppendFloat(b, v)
	}
	b = append(b, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"values":`...)
		if p.Values == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, v := range p.Values {
				if j > 0 {
					b = append(b, ',')
				}
				num(v)
			}
			b = append(b, ']')
		}
		if p.Label != nil {
			b = append(b, `,"label":`...)
			b = strconv.AppendInt(b, int64(*p.Label), 10)
		}
		if p.Weight != 0 {
			b = append(b, `,"weight":`...)
			num(p.Weight)
		}
		if p.TS != nil {
			b = append(b, `,"ts":`...)
			num(*p.TS)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), err
}

// Stats describes a stream's reservoir state, its pending async-ingest
// points and, for a multi-horizon stream, its tiers.
type Stats = httpapi.Stats

// Stats fetches a stream's statistics.
func (c *Client) Stats(name string) (*Stats, error) {
	return c.StatsContext(context.Background(), name)
}

// StatsContext is Stats bounded by ctx.
func (c *Client) StatsContext(ctx context.Context, name string) (*Stats, error) {
	var out Stats
	if err := c.doCtx(ctx, http.MethodGet, "/streams/"+url.PathEscape(name), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

func (c *Client) queryPath(name string, params url.Values) string {
	return "/streams/" + url.PathEscape(name) + "/query?" + params.Encode()
}

// Count estimates the number of points among the last h arrivals, with the
// estimator's variance (Lemma 4.1).
func (c *Client) Count(name string, h uint64) (estimate, variance float64, err error) {
	var out struct {
		Estimate float64 `json:"estimate"`
		Variance float64 `json:"variance"`
	}
	params := url.Values{"type": {"count"}, "h": {strconv.FormatUint(h, 10)}}
	err = c.do(http.MethodGet, c.queryPath(name, params), nil, &out)
	return out.Estimate, out.Variance, err
}

// Average estimates the per-dimension mean of the last h arrivals.
func (c *Client) Average(name string, h uint64) ([]float64, error) {
	var out struct {
		Average []float64 `json:"average"`
	}
	params := url.Values{"type": {"average"}, "h": {strconv.FormatUint(h, 10)}}
	if err := c.do(http.MethodGet, c.queryPath(name, params), nil, &out); err != nil {
		return nil, err
	}
	return out.Average, nil
}

// ClassDistribution estimates the label mix of the last h arrivals.
func (c *Client) ClassDistribution(name string, h uint64) (map[int]float64, error) {
	var out struct {
		Distribution map[int]float64 `json:"distribution"`
	}
	params := url.Values{"type": {"classdist"}, "h": {strconv.FormatUint(h, 10)}}
	if err := c.do(http.MethodGet, c.queryPath(name, params), nil, &out); err != nil {
		return nil, err
	}
	return out.Distribution, nil
}

// GroupAverage estimates each label's per-dimension mean over the last h
// arrivals.
func (c *Client) GroupAverage(name string, h uint64) (map[int][]float64, error) {
	var out struct {
		Groups map[int][]float64 `json:"groups"`
	}
	params := url.Values{"type": {"groupavg"}, "h": {strconv.FormatUint(h, 10)}}
	if err := c.do(http.MethodGet, c.queryPath(name, params), nil, &out); err != nil {
		return nil, err
	}
	return out.Groups, nil
}

// Quantile estimates the q-quantile of one dimension over the last h
// arrivals.
func (c *Client) Quantile(name string, h uint64, dim int, q float64) (float64, error) {
	var out struct {
		Quantile float64 `json:"quantile"`
	}
	params := url.Values{
		"type": {"quantile"},
		"h":    {strconv.FormatUint(h, 10)},
		"dim":  {strconv.Itoa(dim)},
		"q":    {strconv.FormatFloat(q, 'g', -1, 64)},
	}
	if err := c.do(http.MethodGet, c.queryPath(name, params), nil, &out); err != nil {
		return 0, err
	}
	return out.Quantile, nil
}

// RangeBucket is one grouping interval of a Range response: Horvitz–
// Thompson estimates of how many points arrived in [Start, End) and their
// per-dimension sums/means, with the Lemma-4.1 variance of the count.
type RangeBucket = query.Bucket

// RangeTier identifies the reservoir tier that served a Range call on a
// tiered stream.
type RangeTier = query.RangeTier

// RangeResult is the GET /streams/{name}/range response: the arrival-index
// range actually served, the auto-selected bucket width, and one bucket per
// granularity step (empty buckets included).
type RangeResult = query.RangeResult

// Range fetches bucketed estimates over the arrival-index range
// [start, end). end == 0 means "through the newest point"; maxPoints == 0
// accepts the server default budget (200 buckets). The server picks the
// bucket width from the span and the budget.
func (c *Client) Range(name string, start, end uint64, maxPoints int) (*RangeResult, error) {
	return c.RangeContext(context.Background(), name, start, end, maxPoints)
}

// RangeContext is Range bounded by ctx.
func (c *Client) RangeContext(ctx context.Context, name string, start, end uint64, maxPoints int) (*RangeResult, error) {
	params := url.Values{}
	if start > 0 {
		params.Set("start", strconv.FormatUint(start, 10))
	}
	if end > 0 {
		params.Set("end", strconv.FormatUint(end, 10))
	}
	if maxPoints > 0 {
		params.Set("max_points", strconv.Itoa(maxPoints))
	}
	var out RangeResult
	path := "/streams/" + url.PathEscape(name) + "/range"
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	if err := c.doCtx(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics fetches the service's GET /metrics endpoint: the Prometheus
// text exposition of request counters, latency histograms and per-stream
// sampler gauges.
func (c *Client) Metrics() (string, error) {
	var raw []byte
	if err := c.do(http.MethodGet, "/metrics", nil, &raw); err != nil {
		return "", err
	}
	return string(raw), nil
}

// Restore replaces an existing stream's state with checkpoint bytes: what
// TransferContext downloads and a .ckpt file holds.
func (c *Client) Restore(name string, blob []byte) error {
	return c.do(http.MethodPost, "/streams/"+url.PathEscape(name)+"/restore", blob, nil)
}

// The context-aware methods below are the federation coordinator's peer
// surface: liveness/readiness probes, stream discovery, the mergeable
// accumulator export and raw samples, each bounded by the caller's ctx so
// scatter-gather fan-outs can enforce per-peer deadlines.

// HealthzContext probes GET /healthz — liveness. A nil error means the
// peer answered 200.
func (c *Client) HealthzContext(ctx context.Context) error {
	return c.doCtx(ctx, http.MethodGet, "/healthz", nil, nil)
}

// ReadyzContext probes GET /readyz — readiness (durability recovery
// finished, ingest accepting). A nil error means the peer answered 200.
func (c *Client) ReadyzContext(ctx context.Context) error {
	return c.doCtx(ctx, http.MethodGet, "/readyz", nil, nil)
}

// ListStreamsContext is ListStreams bounded by ctx.
func (c *Client) ListStreamsContext(ctx context.Context) ([]string, error) {
	var out httpapi.StreamList
	if err := c.doCtx(ctx, http.MethodGet, "/streams", nil, &out); err != nil {
		return nil, err
	}
	return out.Streams, nil
}

// AccumContext fetches the stream's fused Horvitz–Thompson accumulator
// (GET /streams/{name}/accum): the per-shard terms of the paper's
// Equation-8 estimator, mergeable across disjoint shard streams with
// query.Accum.Merge. sums false asks the shard to skip the per-dimension
// sums (dim=0); true leaves dim to the stream's dimensionality. rect, when
// non-nil, asks the shard to accumulate the range-selectivity numerator
// too.
func (c *Client) AccumContext(ctx context.Context, name string, h uint64, sums bool, rect *query.Rect) (*query.Accum, error) {
	params := url.Values{"h": {strconv.FormatUint(h, 10)}}
	if !sums {
		params.Set("dim", "0")
	}
	if rect != nil {
		dims, lo, hi := rect.Params()
		params.Set("dims", dims)
		params.Set("lo", lo)
		params.Set("hi", hi)
	}
	var raw []byte
	if err := c.doCtx(ctx, http.MethodGet,
		"/streams/"+url.PathEscape(name)+"/accum?"+params.Encode(), nil, &raw); err != nil {
		return nil, err
	}
	return query.DecodeAccum(raw)
}

// SamplePoint is one reservoir resident in a Sample response.
type SamplePoint = query.SamplePoint

// Sample is the reservoir contents of one stream at position T.
type Sample = query.Sample

// SampleContext downloads the stream's current reservoir contents.
func (c *Client) SampleContext(ctx context.Context, name string) (*Sample, error) {
	var out Sample
	if err := c.doCtx(ctx, http.MethodGet, "/streams/"+url.PathEscape(name)+"/sample", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateStreamContext is CreateStream bounded by ctx — the coordinator's
// replica-backfill path uses it under per-peer deadlines.
func (c *Client) CreateStreamContext(ctx context.Context, name string, cfg StreamConfig) error {
	return c.doCtx(ctx, http.MethodPut, "/streams/"+url.PathEscape(name), cfg, nil)
}

// DeleteStreamContext is DeleteStream bounded by ctx.
func (c *Client) DeleteStreamContext(ctx context.Context, name string) error {
	return c.doCtx(ctx, http.MethodDelete, "/streams/"+url.PathEscape(name), nil, nil)
}

// HealthInfo is the GET /healthz payload: liveness plus the node's
// advertised capabilities (currently its wire-protocol listen address).
type HealthInfo = httpapi.Health

// HealthInfoContext probes GET /healthz and returns the full payload —
// coordinators use it to discover a peer's wire-ingest address alongside
// liveness.
func (c *Client) HealthInfoContext(ctx context.Context) (*HealthInfo, error) {
	var out HealthInfo
	if err := c.doCtx(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TransferContext downloads a live checkpoint of the stream (GET
// /streams/{name}/transfer): the bytes a checkpoint file holds, and the
// unit a federation drain ships between nodes.
func (c *Client) TransferContext(ctx context.Context, name string) ([]byte, error) {
	var raw []byte
	if err := c.doCtx(ctx, http.MethodGet,
		"/streams/"+url.PathEscape(name)+"/transfer", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// InstallTransferContext installs checkpoint bytes on the peer under name
// (POST /streams/{name}/transfer). The peer refuses with 409 if it
// already holds the stream.
func (c *Client) InstallTransferContext(ctx context.Context, name string, blob []byte) error {
	return c.doCtx(ctx, http.MethodPost,
		"/streams/"+url.PathEscape(name)+"/transfer", blob, nil)
}

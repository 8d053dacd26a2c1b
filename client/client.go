// Package client is the Go SDK for divotd's remote attestation API — the
// verifier side of the paper's §III protocol when it sits across a network
// from the monitored buses rather than on the same board.
//
// A Client speaks the versioned v1 wire protocol (envelope, error codes,
// DTOs — see the served API's documentation) over plain HTTP with pooled,
// reused connections. Every call takes a context; idempotent calls are
// retried on transport faults and 5xx/429 answers with capped exponential
// backoff, jitter, and a per-call retry budget. Watch subscribes to a bus's
// live event feed over server-sent events and transparently resumes from the
// last seen sequence number after a disconnect.
//
//	c, err := client.New("http://fleet-host:9720")
//	...
//	res, err := c.Attest(ctx)            // batch-attest the whole fleet
//	w, err := c.Watch(ctx, "dimm1", client.WatchOptions{})
//	for ev := range w.Events() { ... }   // live alert feed, auto-resumed
//
// POST /v1/attest is a read-only spot check on the daemon, so Attest is
// deliberately classified idempotent and retried; Authenticate (the
// per-bus POST) is kept un-retried as the conservative default for POSTs.
package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"divot/internal/attest"
)

// Wire DTO re-exports: the schema lives in internal/attest (shared with the
// daemon, so the two cannot drift); these aliases are the public names.
type (
	// HealthView is the fleet liveness summary (GET /healthz).
	HealthView = attest.HealthView
	// LinkSummary is one bus's monitoring snapshot (GET /v1/links).
	LinkSummary = attest.LinkSummary
	// Event is one bus-affecting protocol event (alert feed entries).
	Event = attest.Event
	// EventsResponse is one bus's retained event history.
	EventsResponse = attest.EventsResponse
	// AuthReport is one bus's attestation verdict.
	AuthReport = attest.AuthReport
	// AttestResponse is a batch attestation outcome.
	AttestResponse = attest.AttestResponse
	// LinkHealthView is one bus's per-endpoint condition (GET /v1/health).
	LinkHealthView = attest.LinkHealthView
	// FederatedAttestResponse is a divotherd aggregator's batch attestation
	// outcome: request-order results with shard attribution plus the
	// partial-failure envelope.
	FederatedAttestResponse = attest.FederatedAttestResponse
	// ShardStatus is one daemon's standing inside a federation.
	ShardStatus = attest.ShardStatus
	// ShardError is one failed shard's entry in a federated response.
	ShardError = attest.ShardError
	// DaemonHealth is one daemon's entry in a federated health rollup.
	DaemonHealth = attest.DaemonHealth
	// HerdHealthResponse is a divotherd aggregator's /v1/health rollup.
	HerdHealthResponse = attest.HerdHealthResponse
	// ReadyView is the warm-up progress report (GET /readyz).
	ReadyView = attest.ReadyView
	// HistorySample is one bus's per-round durable monitoring record.
	HistorySample = attest.HistorySample
	// HistoryResponse is one bus's retained score history.
	HistoryResponse = attest.HistoryResponse
)

// ErrUnknownDaemon reports a fan-out plan naming a daemon that is not a
// member of the Multi.
var ErrUnknownDaemon = errors.New("client: unknown daemon")

// Wire error codes (APIError.Code values).
const (
	CodeBadRequest    = attest.CodeBadRequest
	CodeUnknownLink   = attest.CodeUnknownLink
	CodeNotCalibrated = attest.CodeNotCalibrated
	CodeUnavailable   = attest.CodeUnavailable
	CodeInternal      = attest.CodeInternal
)

// APIError is a structured error answer from the daemon. Branch on Code —
// Status is transport decoration.
type APIError struct {
	// Status is the HTTP status the error travelled under.
	Status int
	// Code is the wire error code (Code* constants).
	Code string
	// Message is the human-readable detail.
	Message string
	// RetryAfter is the server's requested pause before the next attempt,
	// parsed from a Retry-After header (integer seconds); zero when the
	// server named none. Retrying calls honor it as a floor on the backoff.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	return fmt.Sprintf("divotd: %s (%s, http %d)", e.Message, e.Code, e.Status)
}

// retryable reports whether the answer may succeed on another attempt:
// rate-limiting and server-side trouble are worth retrying, client mistakes
// (4xx) are not.
func (e *APIError) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// RetryPolicy governs retries of idempotent calls. The zero value retries
// nothing; DefaultRetryPolicy is the production default.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries per call (first attempt included).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles each
	// retry up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff.
	MaxDelay time.Duration
	// Jitter spreads each backoff uniformly by ±Jitter fraction (0..1), so
	// a fleet of recovering clients does not thundering-herd the daemon.
	Jitter float64
	// Budget caps the summed backoff per call; a retry whose delay would
	// exceed the remaining budget is not taken. 0 means no budget cap.
	Budget time.Duration
}

// DefaultRetryPolicy retries up to 4 attempts with 100ms→2s backoff, ±50%
// jitter, and a 10s per-call budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.5,
		Budget:      10 * time.Second,
	}
}

// Client is a remote attestation client. It is safe for concurrent use; all
// calls share one pooled HTTP transport.
type Client struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retry   RetryPolicy
	ua      string

	// sleep and rnd are seams for deterministic retry tests.
	sleep func(ctx context.Context, d time.Duration) error
	rndMu sync.Mutex
	rnd   func() float64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (custom transport,
// TLS, proxies). The default uses a dedicated pooled transport.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout sets the per-attempt timeout of unary calls (default 10s).
// Zero disables it — the call then runs until its context does. Streaming
// connections are exempt: a Watch lives until closed.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetryPolicy replaces the retry policy (DefaultRetryPolicy otherwise).
func WithRetryPolicy(p RetryPolicy) Option { return func(c *Client) { c.retry = p } }

// WithUserAgent sets the User-Agent header.
func WithUserAgent(ua string) Option { return func(c *Client) { c.ua = ua } }

// New builds a client for the daemon at baseURL (e.g. "http://host:9720").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base URL %q: want http:// or https://", baseURL)
	}
	c := &Client{
		base:    strings.TrimRight(u.String(), "/"),
		timeout: 10 * time.Second,
		retry:   DefaultRetryPolicy(),
		ua:      "divot-client/1",
		sleep:   sleepCtx,
		rnd:     rand.Float64,
	}
	for _, o := range opts {
		o(c)
	}
	if c.hc == nil {
		// A dedicated transport: connections to the daemon are kept alive
		// and reused across calls and across Watch reconnects.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 16
		c.hc = &http.Client{Transport: tr}
	}
	return c, nil
}

// Health fetches the fleet liveness summary.
func (c *Client) Health(ctx context.Context) (HealthView, error) {
	var out HealthView
	err := c.call(ctx, http.MethodGet, "/healthz", nil, true, &out)
	return out, err
}

// Links lists every bus's monitoring snapshot.
func (c *Client) Links(ctx context.Context) ([]LinkSummary, error) {
	var out attest.LinksResponse
	err := c.call(ctx, http.MethodGet, "/v1/links", nil, true, &out)
	return out.Links, err
}

// FleetHealth fetches the per-endpoint condition of every calibrated bus.
func (c *Client) FleetHealth(ctx context.Context) ([]LinkHealthView, error) {
	var out attest.FleetHealthResponse
	err := c.call(ctx, http.MethodGet, "/v1/health", nil, true, &out)
	return out.Links, err
}

// Alerts fetches one bus's retained event history, oldest first.
func (c *Client) Alerts(ctx context.Context, id string) ([]Event, error) {
	var out EventsResponse
	err := c.call(ctx, http.MethodGet, "/v1/links/"+url.PathEscape(id)+"/alerts", nil, true, &out)
	return out.Events, err
}

// Attest runs a batch remote attestation: one read-only spot check per named
// bus, or over the whole fleet when no ids are given. The call is idempotent
// on the daemon (no gate or alert state moves), so it is retried under the
// client's policy.
func (c *Client) Attest(ctx context.Context, ids ...string) (AttestResponse, error) {
	var out AttestResponse
	err := c.call(ctx, http.MethodPost, "/v1/attest", attestBody(ids), true, &out)
	return out, err
}

// attestBody is the POST /v1/attest body naming ids; none names the whole
// fleet with an empty body.
func attestBody(ids []string) []byte {
	if len(ids) == 0 {
		return nil
	}
	return attest.AppendAttestRequest(nil, ids)
}

// AttestFederated is Attest against a divotherd aggregator: the same
// request on the same route, decoded into the federated superset response
// (shard attribution per verdict, partial-failure envelope, per-shard
// status). Like Attest it is read-only and retried. Calling it against a
// plain divotd also works — Complete and the shard fields simply come back
// zero-valued, so callers should branch on len(Errors), not Complete, when
// the server kind is unknown.
func (c *Client) AttestFederated(ctx context.Context, ids ...string) (FederatedAttestResponse, error) {
	var out FederatedAttestResponse
	err := c.call(ctx, http.MethodPost, "/v1/attest", attestBody(ids), true, &out)
	return out, err
}

// HerdHealth fetches a divotherd aggregator's federated health rollup:
// per-daemon liveness plus the merged per-bus health of every reachable
// shard.
func (c *Client) HerdHealth(ctx context.Context) (HerdHealthResponse, error) {
	var out HerdHealthResponse
	err := c.call(ctx, http.MethodGet, "/v1/health", nil, true, &out)
	return out, err
}

// Ready fetches the daemon's warm-up progress. Unlike every other route,
// /readyz answers 200 even while the fleet is still restoring or
// calibrating — poll it after starting or restarting a daemon and gate
// traffic on Ready being true.
func (c *Client) Ready(ctx context.Context) (ReadyView, error) {
	var out ReadyView
	err := c.call(ctx, http.MethodGet, "/readyz", nil, true, &out)
	return out, err
}

// History fetches one bus's retained per-round score history, oldest first.
// On a daemon with a state directory the samples survive restarts — the
// window is hydrated from the history WAL on boot.
func (c *Client) History(ctx context.Context, id string) ([]HistorySample, error) {
	var out HistoryResponse
	err := c.call(ctx, http.MethodGet, "/v1/links/"+url.PathEscape(id)+"/history", nil, true, &out)
	return out.Samples, err
}

// Authenticate spot-checks a single bus. Unlike Attest it is never retried —
// the conservative default for single-resource POSTs; callers wanting retry
// semantics should use Attest(ctx, id).
func (c *Client) Authenticate(ctx context.Context, id string) (AuthReport, error) {
	var out AuthReport
	err := c.call(ctx, http.MethodPost, "/v1/links/"+url.PathEscape(id)+"/authenticate", nil, false, &out)
	return out, err
}

// call runs one API call: at most MaxAttempts tries for idempotent calls,
// exponential backoff with jitter between tries, bounded by the retry
// budget. The context covers the whole call including backoff sleeps; the
// per-attempt timeout covers each individual HTTP exchange.
func (c *Client) call(ctx context.Context, method, path string, body []byte, idempotent bool, out any) error {
	var lastErr error
	var spent time.Duration
	for attempt := 0; ; attempt++ {
		lastErr = c.once(ctx, method, path, body, out)
		if lastErr == nil {
			return nil
		}
		if !idempotent || !c.shouldRetry(ctx, lastErr) || attempt+1 >= c.retry.MaxAttempts {
			return lastErr
		}
		d := c.backoff(attempt)
		// A warming or rate-limiting server knows its own timeline better
		// than our backoff curve does: its Retry-After is the floor.
		var aerr *APIError
		if errors.As(lastErr, &aerr) && aerr.RetryAfter > d {
			d = aerr.RetryAfter
		}
		if c.retry.Budget > 0 && spent+d > c.retry.Budget {
			return lastErr
		}
		spent += d
		if err := c.sleep(ctx, d); err != nil {
			return lastErr
		}
	}
}

// once runs a single HTTP exchange under the per-attempt timeout.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("User-Agent", c.ua)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	bp := bodyBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledBody {
			bodyBufs.Put(bp)
		}
	}()
	raw, err := readBody((*bp)[:0], resp)
	*bp = raw
	if err != nil {
		return fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	// Decoding copies every value out of raw, so the buffer can be reused.
	derr := decodeResponse(resp.StatusCode, raw, out)
	var aerr *APIError
	if errors.As(derr, &aerr) {
		aerr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
	}
	return derr
}

// maxResponseBody bounds the response bodies a Client reads.
const maxResponseBody = 16 << 20

// errResponseTooLarge reports an answer past maxResponseBody.
var errResponseTooLarge = fmt.Errorf("response exceeds the %d-byte cap", maxResponseBody)

// maxPooledBody bounds the read buffers kept for reuse; a rarer, larger
// answer (a whole big fleet) is left to the garbage collector.
const maxPooledBody = 1 << 20

var bodyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// readBody appends resp's body to dst, sized up front from Content-Length
// when the server sent one. A body past maxResponseBody is
// errResponseTooLarge, never a truncated read.
func readBody(dst []byte, resp *http.Response) ([]byte, error) {
	if resp.ContentLength > maxResponseBody {
		return dst, errResponseTooLarge
	}
	if n := int(resp.ContentLength) + 1; n > cap(dst) {
		// One spare byte lets the read that sees EOF land without growing.
		dst = make([]byte, 0, n)
	}
	body := io.LimitReader(resp.Body, maxResponseBody+1)
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := body.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxResponseBody {
			return dst, errResponseTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// parseRetryAfter reads an integer-seconds Retry-After value; the HTTP-date
// form and anything malformed decode to zero (no server hint).
func parseRetryAfter(v string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeResponse turns one HTTP answer into a payload or an *APIError.
func decodeResponse(status int, raw []byte, out any) error {
	if status >= 400 {
		if perr := attest.ParseBody(raw, nil); perr != nil {
			var werr *attest.Error
			if errors.As(perr, &werr) {
				return &APIError{Status: status, Code: werr.Code, Message: werr.Message}
			}
		}
		return &APIError{Status: status, Code: CodeInternal,
			Message: fmt.Sprintf("non-envelope answer: %.200s", raw)}
	}
	if err := attest.ParseBody(raw, out); err != nil {
		var werr *attest.Error
		if errors.As(err, &werr) {
			return &APIError{Status: status, Code: werr.Code, Message: werr.Message}
		}
		return fmt.Errorf("client: %w", err)
	}
	return nil
}

// shouldRetry classifies an attempt's failure. Transport faults and
// per-attempt timeouts (both surfacing as *url.Error) are retryable while
// the caller's context is still live; structured daemon answers delegate to
// the error's own classification; anything else — protocol version
// mismatches, undecodable payloads — is terminal, because retrying cannot
// change what the server speaks.
func (c *Client) shouldRetry(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false // the caller's context is done — nothing left to try
	}
	var aerr *APIError
	if errors.As(err, &aerr) {
		return aerr.retryable()
	}
	var uerr *url.Error
	return errors.As(err, &uerr)
}

// backoff computes the jittered delay before retry #attempt+1.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.retry.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt && d < c.retry.MaxDelay; i++ {
		d *= 2
	}
	if c.retry.MaxDelay > 0 && d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	if c.retry.Jitter > 0 {
		c.rndMu.Lock()
		u := c.rnd()
		c.rndMu.Unlock()
		d = time.Duration(float64(d) * (1 + c.retry.Jitter*(2*u-1)))
		if d < 0 {
			d = 0
		}
	}
	return d
}

// sleepCtx sleeps d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

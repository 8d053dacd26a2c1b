package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"divot/internal/attest"
)

// flakyStep scripts one request's fate on the flaky server.
type flakyStep struct {
	drop       bool          // sever the connection without answering
	status     int           // HTTP status to answer (with an envelope body)
	retryAfter string        // Retry-After header on error answers
	delay      time.Duration // stall before answering
	data       any           // success payload (status < 400)
}

// flakyServer serves a scripted sequence of faults, then whatever the final
// step says for any further requests. It records every request line so tests
// can assert exactly what the client put on the wire.
type flakyServer struct {
	mu       sync.Mutex
	steps    []flakyStep
	requests []string
	srv      *httptest.Server
}

func newFlakyServer(t *testing.T, steps ...flakyStep) *flakyServer {
	t.Helper()
	fs := &flakyServer{steps: steps}
	fs.srv = httptest.NewServer(http.HandlerFunc(fs.serve))
	t.Cleanup(fs.srv.Close)
	return fs
}

func (fs *flakyServer) serve(w http.ResponseWriter, r *http.Request) {
	fs.mu.Lock()
	fs.requests = append(fs.requests, r.Method+" "+r.URL.RequestURI())
	step := fs.steps[0]
	if len(fs.steps) > 1 {
		fs.steps = fs.steps[1:]
	}
	fs.mu.Unlock()
	if step.delay > 0 {
		time.Sleep(step.delay)
	}
	switch {
	case step.drop:
		panic(http.ErrAbortHandler) // connection severed mid-exchange
	case step.status >= 400:
		w.Header().Set("Content-Type", "application/json")
		if step.retryAfter != "" {
			w.Header().Set("Retry-After", step.retryAfter)
		}
		w.WriteHeader(step.status)
		json.NewEncoder(w).Encode(attest.Envelope{ //nolint:errcheck
			V:     attest.Version,
			Error: &attest.Error{Code: attest.CodeInternal, Message: "scripted fault"},
		})
	default:
		attest.WriteData(w, http.StatusOK, step.data)
	}
}

func (fs *flakyServer) seen() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]string(nil), fs.requests...)
}

// newTestClient builds a client against the server with deterministic retry
// internals: recorded sleeps instead of real ones and a fixed rnd of 0.5,
// which makes the jitter factor exactly 1.
func newTestClient(t *testing.T, base string, p RetryPolicy) (*Client, *[]time.Duration) {
	t.Helper()
	c, err := New(base, WithRetryPolicy(p), WithTimeout(0))
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	var mu sync.Mutex
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		slept = append(slept, d)
		mu.Unlock()
		return ctx.Err()
	}
	c.rnd = func() float64 { return 0.5 }
	return c, &slept
}

func testPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.5,
		Budget:      10 * time.Second,
	}
}

// TestAttestRecoversFromFaults drives Attest through a dropped connection
// and a 5xx burst to a success, asserting the exact attempt count and the
// exact exponential backoff schedule (jitter pinned to its midpoint).
func TestAttestRecoversFromFaults(t *testing.T) {
	want := AttestResponse{
		Results:     []AuthReport{{ID: "dimm0", Accepted: true, Score: 0.99, Health: "ok"}},
		AllAccepted: true,
	}
	fs := newFlakyServer(t,
		flakyStep{drop: true},
		flakyStep{status: 500},
		flakyStep{status: 500},
		flakyStep{data: want},
	)
	c, slept := newTestClient(t, fs.srv.URL, testPolicy())
	got, err := c.Attest(context.Background())
	if err != nil {
		t.Fatalf("Attest through faults: %v", err)
	}
	if len(got.Results) != 1 || got.Results[0] != want.Results[0] || !got.AllAccepted {
		t.Errorf("Attest = %+v, want %+v", got, want)
	}
	if reqs := fs.seen(); len(reqs) != 4 {
		t.Errorf("server saw %d requests, want 4: %v", len(reqs), reqs)
	}
	wantSleeps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	if len(*slept) != len(wantSleeps) {
		t.Fatalf("backoff schedule %v, want %v", *slept, wantSleeps)
	}
	for i, d := range wantSleeps {
		if (*slept)[i] != d {
			t.Errorf("backoff[%d] = %v, want %v", i, (*slept)[i], d)
		}
	}
}

// TestRetryStopsAtMaxAttempts pins the attempt ceiling: a server that never
// recovers costs exactly MaxAttempts requests and MaxAttempts-1 backoffs.
func TestRetryStopsAtMaxAttempts(t *testing.T) {
	fs := newFlakyServer(t, flakyStep{status: 500})
	p := testPolicy()
	p.MaxAttempts = 3
	c, slept := newTestClient(t, fs.srv.URL, p)
	_, err := c.Links(context.Background())
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Status != 500 {
		t.Fatalf("err = %v, want *APIError with status 500", err)
	}
	if len(fs.seen()) != 3 {
		t.Errorf("server saw %d requests, want 3", len(fs.seen()))
	}
	if len(*slept) != 2 {
		t.Errorf("client slept %d times, want 2", len(*slept))
	}
}

// TestRetryBudgetCutsScheduleShort: a 250ms budget admits the 100ms backoff
// but not the following 200ms one, so the call returns after two attempts
// even though MaxAttempts allows five.
func TestRetryBudgetCutsScheduleShort(t *testing.T) {
	fs := newFlakyServer(t, flakyStep{status: 500})
	p := testPolicy()
	p.Budget = 250 * time.Millisecond
	c, slept := newTestClient(t, fs.srv.URL, p)
	_, err := c.Links(context.Background())
	if err == nil {
		t.Fatal("want error after budget exhaustion")
	}
	if n := len(fs.seen()); n != 2 {
		t.Errorf("server saw %d requests, want 2 (budget cuts the third)", n)
	}
	if len(*slept) != 1 || (*slept)[0] != 100*time.Millisecond {
		t.Errorf("sleeps = %v, want [100ms]", *slept)
	}
}

// TestAuthenticateNeverRetries: the non-idempotent POST takes its failure at
// face value even when a retry would have succeeded.
func TestAuthenticateNeverRetries(t *testing.T) {
	fs := newFlakyServer(t,
		flakyStep{status: 500},
		flakyStep{data: AuthReport{ID: "dimm0", Accepted: true}},
	)
	c, slept := newTestClient(t, fs.srv.URL, testPolicy())
	_, err := c.Authenticate(context.Background(), "dimm0")
	var aerr *APIError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if n := len(fs.seen()); n != 1 {
		t.Errorf("server saw %d requests, want exactly 1 (no retry on POST authenticate)", n)
	}
	if len(*slept) != 0 {
		t.Errorf("client slept %v, want no backoff", *slept)
	}
}

// TestClientErrorsAreTerminal: 4xx answers are the caller's mistake, not a
// transient — no retry, and the structured code surfaces.
func TestClientErrorsAreTerminal(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", "ghost")
	}))
	t.Cleanup(srv.Close)
	reqs := 0
	c, slept := newTestClient(t, srv.URL, testPolicy())
	c.hc.Transport = countingTransport{rt: c.hc.Transport, n: &reqs}
	_, err := c.Alerts(context.Background(), "ghost")
	var aerr *APIError
	if !errors.As(err, &aerr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if aerr.Code != CodeUnknownLink || aerr.Status != http.StatusNotFound {
		t.Errorf("APIError = %+v, want code=%s status=404", aerr, CodeUnknownLink)
	}
	if reqs != 1 {
		t.Errorf("transport saw %d requests, want 1", reqs)
	}
	if len(*slept) != 0 {
		t.Errorf("client slept %v, want no backoff", *slept)
	}
}

type countingTransport struct {
	rt http.RoundTripper
	n  *int
}

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	*c.n++
	return c.rt.RoundTrip(r)
}

// TestSlowServerPerAttemptTimeout: an attempt that outlives the per-attempt
// timeout is abandoned and retried; the overall call still succeeds because
// the caller's context is alive.
func TestSlowServerPerAttemptTimeout(t *testing.T) {
	fs := newFlakyServer(t,
		flakyStep{delay: 300 * time.Millisecond, data: HealthView{Status: "late"}},
		flakyStep{data: HealthView{Status: "ok", FleetOK: true}},
	)
	c, err := New(fs.srv.URL, WithTimeout(50*time.Millisecond),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	hv, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("Health with slow first attempt: %v", err)
	}
	if hv.Status != "ok" || !hv.FleetOK {
		t.Errorf("Health = %+v, want the second (fast) answer", hv)
	}
	if n := len(fs.seen()); n != 2 {
		t.Errorf("server saw %d requests, want 2", n)
	}
}

// TestCallerCancellationIsTerminal: once the caller's context dies nothing
// is retried, regardless of policy headroom.
func TestCallerCancellationIsTerminal(t *testing.T) {
	fs := newFlakyServer(t, flakyStep{status: 500})
	c, slept := newTestClient(t, fs.srv.URL, testPolicy())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Links(ctx)
	if err == nil {
		t.Fatal("want error under a dead context")
	}
	if len(*slept) != 0 {
		t.Errorf("client slept %v under a dead context", *slept)
	}
}

// TestAttestSendsRequestBody pins the wire form of a targeted attest: a JSON
// AttestRequest, and no body at all for the whole-fleet form.
func TestAttestSendsRequestBody(t *testing.T) {
	var mu sync.Mutex
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		mu.Lock()
		bodies = append(bodies, string(raw))
		mu.Unlock()
		attest.WriteData(w, http.StatusOK, AttestResponse{AllAccepted: true})
	}))
	t.Cleanup(srv.Close)
	c, _ := newTestClient(t, srv.URL, testPolicy())
	if _, err := c.Attest(context.Background(), "dimm1", "dimm0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Attest(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	var req attest.AttestRequest
	if err := json.Unmarshal([]byte(bodies[0]), &req); err != nil {
		t.Fatalf("targeted attest body %q: %v", bodies[0], err)
	}
	if len(req.Links) != 2 || req.Links[0] != "dimm1" || req.Links[1] != "dimm0" {
		t.Errorf("targeted attest named %v, want [dimm1 dimm0] in order", req.Links)
	}
	if bodies[1] != "" {
		t.Errorf("whole-fleet attest sent body %q, want empty", bodies[1])
	}
}

// TestFutureProtocolVersionRejected: a v2 envelope must fail loudly, not be
// half-decoded.
func TestFutureProtocolVersionRejected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"v": 2, "data": {}}`)) //nolint:errcheck
	}))
	t.Cleanup(srv.Close)
	c, slept := newTestClient(t, srv.URL, testPolicy())
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("want protocol version error")
	}
	if len(*slept) != 0 {
		t.Errorf("version mismatch was retried (%v); it is not transient", *slept)
	}
}

// TestBackoffCapAndJitterRange: the schedule caps at MaxDelay and jitter
// keeps every delay inside [d*(1-J), d*(1+J)].
func TestBackoffCapAndJitterRange(t *testing.T) {
	c, err := New("http://127.0.0.1:1", WithRetryPolicy(RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
		Jitter:      0.5,
	}))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0.0; u < 1.0; u += 0.25 {
		uu := u
		c.rnd = func() float64 { return uu }
		for attempt := 0; attempt < 8; attempt++ {
			base := 100 * time.Millisecond << attempt
			if base > 400*time.Millisecond {
				base = 400 * time.Millisecond
			}
			d := c.backoff(attempt)
			lo := time.Duration(float64(base) * 0.5)
			hi := time.Duration(float64(base) * 1.5)
			if d < lo || d > hi {
				t.Errorf("backoff(%d) with u=%.2f = %v, want in [%v, %v]", attempt, uu, d, lo, hi)
			}
		}
	}
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"ftp://x", "://", "not a url at all\x00"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted a bad base URL", bad)
		}
	}
	if c, err := New("http://host:9720/"); err != nil || c.base != "http://host:9720" {
		t.Errorf("New trailing slash: c.base=%q err=%v", c.base, err)
	}
}

// TestRetryAfterFloorsBackoff: a warming daemon answers 503 with
// Retry-After: 2, which must floor the client's own 100ms/200ms backoff
// steps — the server knows its warm-up timeline better than our curve does.
func TestRetryAfterFloorsBackoff(t *testing.T) {
	fs := newFlakyServer(t,
		flakyStep{status: 503, retryAfter: "2"},
		flakyStep{status: 503, retryAfter: "2"},
		flakyStep{data: attest.LinksResponse{Links: []LinkSummary{{ID: "dimm0"}}}},
	)
	c, slept := newTestClient(t, fs.srv.URL, testPolicy())
	links, err := c.Links(context.Background())
	if err != nil {
		t.Fatalf("Links through warm-up: %v", err)
	}
	if len(links) != 1 || links[0].ID != "dimm0" {
		t.Errorf("Links = %+v", links)
	}
	want := []time.Duration{2 * time.Second, 2 * time.Second}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Errorf("sleeps = %v, want %v (Retry-After floors the backoff)", *slept, want)
	}
}

// TestRetryAfterSurfacesOnAPIError: a terminal failure hands the caller the
// server's pause hint; malformed and missing headers decode to zero.
func TestRetryAfterSurfacesOnAPIError(t *testing.T) {
	fs := newFlakyServer(t, flakyStep{status: 503, retryAfter: "7"})
	p := testPolicy()
	p.MaxAttempts = 1
	c, _ := newTestClient(t, fs.srv.URL, p)
	_, err := c.Links(context.Background())
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.RetryAfter != 7*time.Second {
		t.Fatalf("err = %v, want APIError with RetryAfter=7s", err)
	}
	for v, want := range map[string]time.Duration{
		"":    0,
		"bad": 0,
		"-3":  0,
		" 2 ": 2 * time.Second,
	} {
		if got := parseRetryAfter(v); got != want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", v, got, want)
		}
	}
}

// TestReadyAndHistory covers the two durability-era reads: /readyz progress
// and a bus's persisted score history.
func TestReadyAndHistory(t *testing.T) {
	samples := []HistorySample{
		{Round: 1, Score: 0.97, Health: "ok", Reaction: "normal", Verdict: "ok"},
		{Round: 2, Score: 0.31, Health: "suspect", Reaction: "degraded", Verdict: "auth-failure"},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			attest.WriteData(w, http.StatusOK, ReadyView{Ready: false, Calibrated: 12, WarmLoaded: 3, Total: 1000})
		case "/v1/links/dimm 1/history":
			attest.WriteData(w, http.StatusOK, HistoryResponse{Link: "dimm 1", Samples: samples})
		default:
			attest.WriteError(w, attest.CodeUnknownLink, "unknown bus")
		}
	}))
	t.Cleanup(srv.Close)
	c, _ := newTestClient(t, srv.URL, testPolicy())

	rv, err := c.Ready(context.Background())
	if err != nil {
		t.Fatalf("Ready: %v", err)
	}
	if rv.Ready || rv.Calibrated != 12 || rv.WarmLoaded != 3 || rv.Total != 1000 {
		t.Errorf("Ready = %+v", rv)
	}

	got, err := c.History(context.Background(), "dimm 1") // exercises path escaping too
	if err != nil {
		t.Fatalf("History: %v", err)
	}
	if len(got) != 2 || got[0] != samples[0] || got[1] != samples[1] {
		t.Errorf("History = %+v, want %+v", got, samples)
	}

	_, err = c.History(context.Background(), "ghost")
	var aerr *APIError
	if !errors.As(err, &aerr) || aerr.Code != CodeUnknownLink {
		t.Errorf("unknown bus history err = %v, want %s", err, CodeUnknownLink)
	}
}

// TestResponseOverCapIsNamed: an answer past the read cap is an error naming
// the cap, whether the server announced its length or streamed it chunked,
// and is never retried.
func TestResponseOverCapIsNamed(t *testing.T) {
	for _, sized := range []bool{true, false} {
		var calls atomic.Int32
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			calls.Add(1)
			if sized {
				w.Header().Set("Content-Length", strconv.Itoa(maxResponseBody+1))
			}
			w.Write(bytes.Repeat([]byte(" "), maxResponseBody+1)) //nolint:errcheck // client may hang up
		}))
		c, _ := newTestClient(t, srv.URL, testPolicy())
		_, err := c.Attest(context.Background())
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeds the %d-byte cap", maxResponseBody)) {
			t.Errorf("sized=%v: error %v, want one naming the %d-byte cap", sized, err, maxResponseBody)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("sized=%v: %d attempts, want 1", sized, n)
		}
	}
}

// TestDecodedValuesOutliveTheReadBuffer: the read buffer is reused across
// calls, so a decoded answer must not alias it.
func TestDecodedValuesOutliveTheReadBuffer(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		id := fmt.Sprintf("bus-%d", n.Add(1))
		attest.WriteData(w, http.StatusOK, AttestResponse{Results: []AuthReport{{ID: id, Health: "h-" + id}}})
	}))
	t.Cleanup(srv.Close)
	c, _ := newTestClient(t, srv.URL, testPolicy())
	first, err := c.Attest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Attest(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if r := first.Results[0]; r.ID != "bus-1" || r.Health != "h-bus-1" {
		t.Errorf("first answer changed under later calls: %+v", r)
	}
}

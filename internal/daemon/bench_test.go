package daemon

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divot"
	"divot/internal/attest"
	"divot/internal/store"
)

// lightConfig shrinks the instrument so fleet-scale benchmarks measure the
// daemon — scheduler, cache, telemetry — rather than the physics: a short
// acquisition window (~45 ETS bins instead of ~343), few trials per bin, a
// fixed tamper threshold (no auto-calibration rounds), and shallow
// enrollment.
func lightConfig() *divot.Config {
	cfg := divot.DefaultConfig()
	cfg.Engine.ITDR.WindowSec = 0.5e-9
	cfg.Engine.ITDR.TrialsPerBin = 5
	cfg.Engine.TamperThreshold = 1e-6
	cfg.Engine.EnrollMeasurements = 2
	cfg.Engine.Parallelism = 1
	return &cfg
}

// newWarm builds a daemon with New and warms it up, as divotd's Run does
// before it starts the schedulers.
func newWarm(spec Spec, opts Options) (*Daemon, error) {
	d, err := New(spec, opts)
	if err != nil {
		return nil, err
	}
	return d, d.Warmup()
}

// benchSpec builds an n-bus spec with a long interval (the benchmarks drive
// rounds directly; the timer path is not what's being measured).
func benchSpec(n int, maxStalenessMS int) Spec {
	spec := Spec{
		Seed:           7,
		Listen:         "127.0.0.1:0",
		IntervalMS:     60_000,
		MaxStalenessMS: maxStalenessMS,
	}
	for i := 0; i < n; i++ {
		spec.Buses = append(spec.Buses, BusSpec{ID: fmt.Sprintf("dimm%04d", i)})
	}
	spec.applyDefaults()
	return spec
}

// BenchmarkFleetScheduler measures one full fleet round — every bus
// monitored once through the daemon's round path (attack check, engine
// round, reactor, metrics, attestation-cache refresh) — at 10/100/1000
// buses on deliberately light instruments.
func BenchmarkFleetScheduler(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("links=%d", n), func(b *testing.B) {
			if testing.Short() && n > 100 {
				b.Skipf("skipping %d-bus fleet in -short mode", n)
			}
			d, err := newWarm(benchSpec(n, 0), Options{Config: lightConfig()})
			if err != nil {
				b.Fatal(err)
			}
			for _, ls := range d.links { // warm arenas and inverter caches
				d.monitorOnce(ls)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, ls := range d.links {
					d.monitorOnce(ls)
				}
			}
		})
	}
}

// BenchmarkAttest measures POST /v1/attest through the full HTTP stack:
// cold re-measures the bus every request (max_staleness_ms 0), warm serves
// from the last-round attestation cache. Unlike the fleet sweep this runs
// the paper-weight instrument — the point is the real cost of a spot-check
// measurement against a cache hit.
func BenchmarkAttest(b *testing.B) {
	for _, mode := range []struct {
		name    string
		staleMS int
	}{
		{name: "cold", staleMS: 0},
		{name: "warm", staleMS: 3_600_000},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := divot.DefaultConfig()
			cfg.Engine.Parallelism = 1
			d, err := newWarm(benchSpec(1, mode.staleMS), Options{Config: &cfg})
			if err != nil {
				b.Fatal(err)
			}
			srv := httptest.NewServer(d.Handler())
			defer srv.Close()
			status, body := postAttestB(b, srv.URL) // warm cache and connections
			if status != 200 {
				b.Fatalf("attest status %d: %s", status, body)
			}
			_, body = postAttestB(b, srv.URL)
			var ar attest.AttestResponse
			if err := attest.ParseBody(body, &ar); err != nil {
				b.Fatal(err)
			}
			if wantCached := mode.staleMS > 0; ar.Results[0].Cached != wantCached {
				b.Fatalf("%s attest: cached = %v, want %v", mode.name, ar.Results[0].Cached, wantCached)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postAttestB(b, srv.URL)
			}
		})
	}
}

// postAttestB is postAttest for benchmarks.
func postAttestB(b *testing.B, base string) (int, []byte) {
	b.Helper()
	resp, err := http.Post(base+"/v1/attest", "application/json", strings.NewReader(""))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	return resp.StatusCode, body
}

// mustGet fetches a URL for a benchmark and returns the body.
func mustGet(b *testing.B, url string) []byte {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// BenchmarkDaemonStartup measures fleet bring-up at 100 buses: cold runs the
// full enrollment (calibration measurements plus tamper-floor probes per
// bus), warm restores every bus from its enrollment snapshot in the state
// directory — the crash-recovery path, which must be calibration-free.
func BenchmarkDaemonStartup(b *testing.B) {
	spec := benchSpec(100, 0)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := newWarm(spec, Options{Config: lightConfig()}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seedBackend, err := store.OpenDir(dir, store.DirOptions{})
		if err != nil {
			b.Fatal(err)
		}
		d, err := newWarm(spec, Options{Config: lightConfig(), Backend: seedBackend})
		if err != nil {
			b.Fatal(err)
		}
		d.persistFleet()
		if err := seedBackend.Close(); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			backend, err := store.OpenDir(dir, store.DirOptions{})
			if err != nil {
				b.Fatal(err)
			}
			d, err := newWarm(spec, Options{Config: lightConfig(), Backend: backend})
			if err != nil {
				b.Fatal(err)
			}
			if d.warmN.Load() != 100 {
				b.Fatalf("restored %d/100 buses", d.warmN.Load())
			}
			backend.Close() //nolint:errcheck // read-only iteration
		}
	})
}

// BenchmarkFleetHealth measures GET /v1/health at 100 buses, cold (lock and
// snapshot every bus) vs warm (served from the per-bus cached views).
func BenchmarkFleetHealth(b *testing.B) {
	for _, mode := range []struct {
		name    string
		staleMS int
	}{
		{name: "cold", staleMS: 0},
		{name: "warm", staleMS: 3_600_000},
	} {
		b.Run(mode.name, func(b *testing.B) {
			d, err := newWarm(benchSpec(100, mode.staleMS), Options{Config: lightConfig()})
			if err != nil {
				b.Fatal(err)
			}
			for _, ls := range d.links { // populate the caches
				d.monitorOnce(ls)
			}
			srv := httptest.NewServer(d.Handler())
			defer srv.Close()
			var hr attest.FleetHealthResponse
			if err := attest.ParseBody(mustGet(b, srv.URL+"/v1/health"), &hr); err != nil {
				b.Fatal(err)
			}
			if len(hr.Links) != 100 {
				b.Fatalf("fleet health returned %d links, want 100", len(hr.Links))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustGet(b, srv.URL+"/v1/health")
			}
		})
	}
}

// BenchmarkFleetColdStart measures full-fidelity fleet bring-up: every bus
// cold-enrolled on the paper-weight instrument — the real one-time pairing
// cost a new fleet pays (BenchmarkDaemonStartup runs light instruments to
// isolate daemon overhead instead). Cold start fans out one link per worker
// at the default parallelism (0 = one worker per CPU); each link enrolls on
// its worker's goroutine.
func BenchmarkFleetColdStart(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			if testing.Short() && n > 100 {
				b.Skipf("skipping %d-bus cold start in -short mode", n)
			}
			spec := benchSpec(n, 0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := newWarm(spec, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if got := int(d.calibratedN.Load()); got != n {
					b.Fatalf("calibrated %d/%d buses", got, n)
				}
			}
		})
	}
}

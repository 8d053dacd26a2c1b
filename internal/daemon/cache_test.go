package daemon

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"divot/internal/attest"
	"divot/internal/telemetry"
)

// cacheSpec builds a one-bus fleet with the attestation cache enabled.
func cacheSpec(t *testing.T, extra string) Spec {
	t.Helper()
	spec, err := LoadSpec(writeSpec(t, `{
		"seed": 11,
		"listen": "127.0.0.1:0",
		"interval_ms": 5,
		"max_staleness_ms": 60000,
		"buses": [{"id": "dimm0"}`+extra+`]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// attestFleet POSTs a whole-fleet /v1/attest and decodes the response.
func attestFleet(t *testing.T, base string) attest.AttestResponse {
	t.Helper()
	status, body := postAttest(t, base, "")
	if status != http.StatusOK {
		t.Fatalf("POST /v1/attest: status %d: %s", status, body)
	}
	var ar attest.AttestResponse
	if err := attest.ParseBody(body, &ar); err != nil {
		t.Fatalf("POST /v1/attest: %v", err)
	}
	return ar
}

// TestAttestCacheHitAfterMiss: with the cache enabled and no scheduler
// running, the first attestation measures (miss) and the second is served
// from the stored view (hit) with the same verdict, flagged Cached.
func TestAttestCacheHitAfterMiss(t *testing.T) {
	d, err := newWarm(cacheSpec(t, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	cold := attestFleet(t, srv.URL)
	if len(cold.Results) != 1 || cold.Results[0].Cached {
		t.Fatalf("cold attest: want one uncached result, got %+v", cold.Results)
	}
	warm := attestFleet(t, srv.URL)
	if len(warm.Results) != 1 || !warm.Results[0].Cached {
		t.Fatalf("warm attest: want one cached result, got %+v", warm.Results)
	}
	c, w := cold.Results[0], warm.Results[0]
	if w.Accepted != c.Accepted || w.Score != c.Score || w.Health != c.Health {
		t.Fatalf("cached verdict diverged: cold %+v warm %+v", c, w)
	}
	metrics := string(get(t, srv.URL+"/metrics"))
	for _, want := range []string{
		`divot_attest_cache_misses_total{link="dimm0"} 1`,
		`divot_attest_cache_hits_total{link="dimm0"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAttestCacheDisabledByDefault: max_staleness_ms 0 keeps today's
// semantics — every request re-measures and nothing is ever flagged Cached.
func TestAttestCacheDisabledByDefault(t *testing.T) {
	spec, err := LoadSpec(writeSpec(t, `{
		"seed": 11,
		"listen": "127.0.0.1:0",
		"buses": [{"id": "dimm0"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	for i := 0; i < 2; i++ {
		ar := attestFleet(t, srv.URL)
		if ar.Results[0].Cached {
			t.Fatalf("attest %d served from cache with max_staleness_ms 0", i)
		}
	}
}

// TestAttestCacheInvalidation: every attention-worthy telemetry kind —
// re-enrollment, health transition, monitor error, alert, gate move, attack
// — must drop the cached view the instant it is emitted.
func TestAttestCacheInvalidation(t *testing.T) {
	kinds := []telemetry.EventKind{
		telemetry.EventReenroll, telemetry.EventHealth,
		telemetry.EventMonitorError, telemetry.EventAlert,
		telemetry.EventGate, telemetry.EventAttack,
	}
	d, err := newWarm(cacheSpec(t, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := d.byID["dimm0"]
	sink := alertSink{d}
	for _, kind := range kinds {
		ls.refreshCache(attest.AuthReport{ID: ls.id, Accepted: true, Score: 1, Health: "ok"},
			attest.LinkHealthView{ID: ls.id, State: "ok"})
		if _, _, ok := ls.cached(d.maxStale); !ok {
			t.Fatalf("fresh cache not served before %v", kind)
		}
		sink.Emit(telemetry.Event{Kind: kind, Link: ls.id})
		if _, _, ok := ls.cached(d.maxStale); ok {
			t.Errorf("cache survived %v", kind)
		}
	}
	// Events for other buses must not touch this bus's cache.
	ls.refreshCache(attest.AuthReport{ID: ls.id, Accepted: true}, attest.LinkHealthView{ID: ls.id})
	sink.Emit(telemetry.Event{Kind: telemetry.EventAlert, Link: "elsewhere"})
	if _, _, ok := ls.cached(d.maxStale); !ok {
		t.Error("another bus's alert invalidated this bus's cache")
	}
}

// TestAttestCacheNeverServesStaleOK is the safety property behind the whole
// cache: a bus attested "ok" into a 60-second cache window, then hit by an
// interposer, must fail its next attestation the moment monitoring confirms
// the attack — the cached "ok" may never outlive the alert.
func TestAttestCacheNeverServesStaleOK(t *testing.T) {
	spec := cacheSpec(t, `,
		{"id": "dimm1", "attack": {"kind": "interposer", "after_rounds": 2, "position": 0.1}}`)
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, io.Discard) }()
	defer func() { cancel(); <-done }()

	var base string
	for deadline := time.Now().Add(5 * time.Second); ; {
		if addr := d.Addr(); addr != "" {
			base = "http://" + addr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never started listening")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Warm the cache while the bus is still clean (the verdict may already
	// be post-attack if the scheduler outran us — then it must reject).
	first := attestFleet(t, base)

	// Wait until monitoring confirms the attack...
	deadline := time.Now().Add(30 * time.Second)
	for {
		var lr attest.LinksResponse
		getData(t, base+"/v1/links", &lr)
		failed := false
		for _, v := range lr.Links {
			if v.ID == "dimm1" && v.Health == "failed" {
				failed = true
			}
		}
		if failed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("interposer never confirmed; first attest %+v", first.Results)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// ...then the very next attestation must reject, despite the 60 s
	// staleness allowance.
	after := attestFleet(t, base)
	for _, rep := range after.Results {
		if rep.ID == "dimm1" && rep.Accepted {
			t.Fatalf("stale ok served for attacked bus: %+v", rep)
		}
	}
	// /v1/health must agree (it shares the cache): dimm1 is not ok.
	var hr attest.FleetHealthResponse
	getData(t, base+"/v1/health", &hr)
	for _, v := range hr.Links {
		if v.ID == "dimm1" && v.State == "ok" {
			t.Fatalf("fleet health reports stale ok for attacked bus: %+v", v)
		}
	}
}

// TestShardAssignment pins the deal: round-robin in spec order, shard count
// capped by the fleet size.
func TestShardAssignment(t *testing.T) {
	spec, err := LoadSpec(writeSpec(t, `{
		"seed": 3,
		"listen": "127.0.0.1:0",
		"scheduler_shards": 2,
		"buses": [{"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}, {"id": "e"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := d.shardLinks()
	if len(shards) != 2 {
		t.Fatalf("shardLinks: %d shards, want 2", len(shards))
	}
	want := [][]string{{"a", "c", "e"}, {"b", "d"}}
	for i, shard := range shards {
		var ids []string
		for _, ls := range shard {
			ids = append(ids, ls.id)
		}
		if strings.Join(ids, ",") != strings.Join(want[i], ",") {
			t.Errorf("shard %d = %v, want %v", i, ids, want[i])
		}
	}

	d.spec.SchedulerShards = 64
	if got := d.shardCount(); got != 5 {
		t.Errorf("shardCount with 64 requested over 5 buses = %d, want 5", got)
	}
	d.spec.SchedulerShards = 0
	if got, max := d.shardCount(), runtime.GOMAXPROCS(0); got > max || got > 5 || got < 1 {
		t.Errorf("default shardCount = %d, want in [1, min(%d, 5)]", got, max)
	}
}

// TestShardSchedulerRoundsEveryBus runs a fleet larger than its shard pool
// and checks every bus gets monitoring rounds and the shard-depth gauge is
// exported.
func TestShardSchedulerRoundsEveryBus(t *testing.T) {
	spec, err := LoadSpec(writeSpec(t, `{
		"seed": 3,
		"listen": "127.0.0.1:0",
		"interval_ms": 2,
		"scheduler_shards": 2,
		"buses": [{"id": "a"}, {"id": "b"}, {"id": "c"}, {"id": "d"}, {"id": "e"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	d, err := newWarm(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx, io.Discard) }()
	defer func() { cancel(); <-done }()

	deadline := time.Now().Add(30 * time.Second)
	for {
		all := true
		for _, ls := range d.links {
			if ls.rounds.Load() < 3 {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			for _, ls := range d.links {
				t.Logf("bus %s: %d rounds", ls.id, ls.rounds.Load())
			}
			t.Fatal("not every bus reached 3 rounds")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var base string
	for deadline := time.Now().Add(5 * time.Second); base == ""; {
		if addr := d.Addr(); addr != "" {
			base = "http://" + addr
		} else if time.Now().After(deadline) {
			t.Fatal("daemon never started listening")
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	metrics := string(get(t, base+"/metrics"))
	if !strings.Contains(metrics, `divot_scheduler_shard_depth{shard="0"}`) ||
		!strings.Contains(metrics, `divot_scheduler_shard_depth{shard="1"}`) {
		t.Errorf("metrics missing shard depth gauges:\n%s", metrics)
	}
}

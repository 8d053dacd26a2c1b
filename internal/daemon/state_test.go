package daemon

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"divot"
	"divot/internal/attest"
	"divot/internal/store"
)

// stateSpec is a small fleet for durability tests.
func stateSpec(n int) Spec {
	spec := benchSpec(n, 0)
	return spec
}

// stateConfig is a fast engine whose monitoring rounds stay clean — unlike
// lightConfig, whose 5-trial bins are too coarse to keep authenticating
// (fine for benchmarks, fatal for tests that assert "ok" verdicts).
func stateConfig() *divot.Config {
	cfg := lightConfig()
	cfg.Engine.ITDR.TrialsPerBin = 40
	return cfg
}

// driveRounds runs k monitoring rounds on every bus.
func driveRounds(d *Daemon, k int) {
	for i := 0; i < k; i++ {
		for _, ls := range d.links {
			d.monitorOnce(ls)
		}
	}
}

// TestWarmRestart is the crash-safety contract end to end: a daemon dies
// without any graceful shutdown (SIGKILL semantics — the backend is simply
// abandoned mid-flight), a second daemon boots from the same state, and the
// fleet is back in milliseconds: every bus restored, zero calibration rounds,
// history continuous, verdicts flowing.
func TestWarmRestart(t *testing.T) {
	backend := store.NewMemory()
	spec := stateSpec(3)

	d1, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := d1.warmN.Load(); got != 0 {
		t.Fatalf("first boot restored %d buses from an empty store", got)
	}
	driveRounds(d1, 5)
	// A real daemon persists on every state-changing round and at graceful
	// shutdown; stand in for "the last persisted round" explicitly, then
	// abandon d1 — no Close, no flush. That is the kill -9.
	d1.persistFleet()
	wantHealth := make(map[string]attest.LinkSummary)
	for _, ls := range d1.links {
		wantHealth[ls.id] = d1.view(ls)
	}

	d2, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.warmN.Load(); got != 3 {
		t.Fatalf("warm restart restored %d/3 buses", got)
	}
	if !d2.ready.Load() {
		t.Fatal("restored daemon not ready")
	}
	for _, ls := range d2.links {
		got := d2.view(ls)
		want := wantHealth[ls.id]
		if got.Rounds != want.Rounds {
			t.Errorf("bus %s: rounds %d after restart, want %d (continuity lost)", ls.id, got.Rounds, want.Rounds)
		}
		if got.Health != want.Health || got.Reaction != want.Reaction {
			t.Errorf("bus %s: health/reaction %s/%s, want %s/%s", ls.id, got.Health, got.Reaction, want.Health, want.Reaction)
		}
		if !got.CPUGate || !got.ModuleGate {
			t.Errorf("bus %s: gates closed after warm restart", ls.id)
		}
	}
	// History rings must be rehydrated from the WAL: 5 rounds per bus.
	for _, ls := range d2.links {
		hist := ls.snapshotHistory()
		if len(hist) != 5 {
			t.Fatalf("bus %s: %d history samples after restart, want 5", ls.id, len(hist))
		}
		rounds := make([]uint64, len(hist))
		for i, s := range hist {
			rounds[i] = s.Round
			if s.Verdict != "ok" {
				t.Errorf("bus %s: clean round recorded verdict %q", ls.id, s.Verdict)
			}
		}
		if !sort.SliceIsSorted(rounds, func(i, j int) bool { return rounds[i] < rounds[j] }) {
			t.Errorf("bus %s: history out of order: %v", ls.id, rounds)
		}
	}
	// And monitoring continues where it left off — round numbers extend the
	// recovered history instead of restarting at 1.
	driveRounds(d2, 1)
	for _, ls := range d2.links {
		hist := ls.snapshotHistory()
		last := hist[len(hist)-1]
		if last.Round != 6 {
			t.Errorf("bus %s: first post-restart round numbered %d, want 6", ls.id, last.Round)
		}
	}
}

// TestWarmRestartPreservesReactorState: the anti-ratchet contract. A bus
// whose reactor had escalated must restart escalated, with its streaks — a
// restart is not an amnesty.
func TestWarmRestartPreservesReactorState(t *testing.T) {
	backend := store.NewMemory()
	spec := stateSpec(1)
	d1, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	ls1 := d1.links[0]
	if err := ls1.reactor.Restore(divot.ReactorSnapshot{
		State: "halted", AuthStreak: 4, Rounds: 12,
	}); err != nil {
		t.Fatal(err)
	}
	d1.persistFleet()

	d2, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if d2.warmN.Load() != 1 {
		t.Fatal("bus not restored warm")
	}
	snap := d2.links[0].reactor.Snapshot()
	if snap.State != "halted" || snap.AuthStreak != 4 || snap.Rounds != 12 {
		t.Fatalf("reactor state laundered by restart: %+v", snap)
	}
}

// TestCorruptSnapshotFallsBackCold: a damaged snapshot is never trusted — the
// affected bus cold-calibrates, its neighbours restore warm, and the daemon
// comes up either way.
func TestCorruptSnapshotFallsBackCold(t *testing.T) {
	backend := store.NewMemory()
	spec := stateSpec(3)
	d1, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	d1.persistFleet()
	backend.CorruptSnapshot(d1.links[1].id)

	d2, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.warmN.Load(); got != 2 {
		t.Fatalf("restored %d buses, want 2 (one snapshot was corrupt)", got)
	}
	if got := d2.calibratedN.Load(); got != 3 {
		t.Fatalf("calibrated %d buses, want 3", got)
	}
	for _, ls := range d2.links {
		if !ls.link.Calibrated() {
			t.Fatalf("bus %s not calibrated after fallback", ls.id)
		}
	}
	// The cold-calibrated bus's fresh enrollment replaced the corrupt
	// snapshot, so the next restart is fully warm again.
	d3, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := d3.warmN.Load(); got != 3 {
		t.Fatalf("third boot restored %d buses, want 3", got)
	}
}

// TestSpecChangeInvalidatesSnapshots: snapshots are bound to the seed and
// engine configuration. A different seed manufactures different lines — the
// old enrollments must not be trusted against them.
func TestSpecChangeInvalidatesSnapshots(t *testing.T) {
	backend := store.NewMemory()
	spec := stateSpec(2)
	d1, err := newWarm(spec, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	d1.persistFleet()

	spec2 := spec
	spec2.Seed = spec.Seed + 1
	d2, err := newWarm(spec2, Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.warmN.Load(); got != 0 {
		t.Fatalf("stale snapshots accepted: %d buses restored across a seed change", got)
	}
	if got := d2.calibratedN.Load(); got != 2 {
		t.Fatalf("calibrated %d buses, want 2", got)
	}
}

// TestSpecHashIgnoresParallelism: worker-count changes produce bit-identical
// results, so they must not invalidate a fleet's snapshots.
func TestSpecHashIgnoresParallelism(t *testing.T) {
	cfg1 := lightConfig()
	cfg2 := lightConfig()
	cfg2.Engine.Parallelism = 8
	h1, err := computeSpecHash(7, *cfg1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := computeSpecHash(7, *cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("parallelism change invalidated the spec hash")
	}
	cfg2.Engine.AuthThreshold = 0.5
	h3, err := computeSpecHash(7, *cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("threshold change did NOT invalidate the spec hash")
	}
}

// TestWarmRestartFromDiskWithTornWAL is the full crash e2e on the real file
// backend: a daemon writes snapshots and WALs to a state directory, dies with
// a torn history record on disk (the crash caught a write mid-record), and
// the next boot recovers — truncating the torn tail, restoring every bus
// warm, and appending cleanly.
func TestWarmRestartFromDiskWithTornWAL(t *testing.T) {
	dir := t.TempDir()
	spec := stateSpec(2)

	b1, err := store.OpenDir(dir, store.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d1, err := newWarm(spec, Options{Config: stateConfig(), Backend: b1})
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(d1, 3)
	d1.persistFleet()
	if err := b1.Sync(); err != nil {
		t.Fatal(err)
	}
	// The crash: no Close. Tear the history WAL's live segment by appending
	// half a record.
	segs, err := filepath.Glob(filepath.Join(dir, "history", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no history segments on disk: %v %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, err := store.OpenDir(dir, store.DirOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if b2.HistoryWAL().TruncatedBytes() != 6 {
		t.Fatalf("torn tail: truncated %d bytes, want 6", b2.HistoryWAL().TruncatedBytes())
	}
	d2, err := newWarm(spec, Options{Config: stateConfig(), Backend: b2})
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.warmN.Load(); got != 2 {
		t.Fatalf("restored %d/2 buses from disk", got)
	}
	for _, ls := range d2.links {
		if hist := ls.snapshotHistory(); len(hist) != 3 {
			t.Fatalf("bus %s: %d history samples recovered, want 3", ls.id, len(hist))
		}
	}
	// Post-recovery appends work and survive another replay.
	driveRounds(d2, 1)
	if err := b2.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestReadyGating: until warmup completes, /readyz reports progress with 200
// while every other route answers 503 with a Retry-After header; after
// warmup the gate opens.
func TestReadyGating(t *testing.T) {
	d, err := New(stateSpec(2), Options{Config: lightConfig()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var rv attest.ReadyView
	resp := getRaw(t, srv.URL+"/readyz")
	if resp.code != http.StatusOK {
		t.Fatalf("/readyz pre-warmup status = %d", resp.code)
	}
	if err := attest.ParseBody(resp.body, &rv); err != nil {
		t.Fatal(err)
	}
	if rv.Ready || rv.Total != 2 || rv.Calibrated != 0 {
		t.Fatalf("pre-warmup ready view: %+v", rv)
	}

	resp = getRaw(t, srv.URL+"/v1/links")
	if resp.code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/links pre-warmup status = %d, want 503", resp.code)
	}
	if resp.retryAfter != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", resp.retryAfter)
	}
	var apiErr *attest.Error
	if err := attest.ParseBody(resp.body, nil); err != nil {
		if e, ok := err.(*attest.Error); ok {
			apiErr = e
		} else {
			t.Fatal(err)
		}
	}
	if apiErr == nil || apiErr.Code != attest.CodeUnavailable {
		t.Fatalf("pre-warmup error = %v, want code unavailable", apiErr)
	}
	if resp = getRaw(t, srv.URL+"/metrics"); resp.code != http.StatusOK {
		t.Fatalf("/metrics gated during warmup: %d", resp.code)
	}

	if err := d.Warmup(); err != nil {
		t.Fatal(err)
	}
	resp = getRaw(t, srv.URL+"/readyz")
	if err := attest.ParseBody(resp.body, &rv); err != nil {
		t.Fatal(err)
	}
	if !rv.Ready || rv.Calibrated != 2 {
		t.Fatalf("post-warmup ready view: %+v", rv)
	}
	if resp = getRaw(t, srv.URL+"/v1/links"); resp.code != http.StatusOK {
		t.Fatalf("/v1/links post-warmup status = %d", resp.code)
	}
}

// TestHistoryEndpoint: per-bus score history over HTTP, unknown bus 404s.
func TestHistoryEndpoint(t *testing.T) {
	d, err := newWarm(stateSpec(1), Options{Config: stateConfig()})
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(d, 4)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	var hr attest.HistoryResponse
	resp := getRaw(t, srv.URL+"/v1/links/dimm0000/history")
	if resp.code != http.StatusOK {
		t.Fatalf("history status = %d: %s", resp.code, resp.body)
	}
	if err := attest.ParseBody(resp.body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Link != "dimm0000" || len(hr.Samples) != 4 {
		t.Fatalf("history = %+v, want 4 samples for dimm0000", hr)
	}
	for i, s := range hr.Samples {
		// The light test instrument masks dead bins early, so health may read
		// "degraded" — what matters here is the round numbering, a clean
		// verdict, and a real score.
		if s.Round != uint64(i+1) || s.Verdict != "ok" || s.Score <= 0 || s.Health == "" || s.Reaction == "" {
			t.Errorf("sample %d: %+v", i, s)
		}
	}
	if resp = getRaw(t, srv.URL+"/v1/links/nosuch/history"); resp.code != http.StatusNotFound {
		t.Fatalf("unknown bus history status = %d, want 404", resp.code)
	}
}

// TestHistoryRingBounded: the in-memory ring retains the newest histRingCap
// samples and drops the oldest.
func TestHistoryRingBounded(t *testing.T) {
	d, err := newWarm(stateSpec(1), Options{Config: stateConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ls := d.links[0]
	for i := 0; i < histRingCap+10; i++ {
		d.monitorOnce(ls)
	}
	hist := ls.snapshotHistory()
	if len(hist) != histRingCap {
		t.Fatalf("ring holds %d, want %d", len(hist), histRingCap)
	}
	if hist[0].Round != 11 || hist[len(hist)-1].Round != histRingCap+10 {
		t.Fatalf("ring window [%d, %d], want [11, %d]",
			hist[0].Round, hist[len(hist)-1].Round, histRingCap+10)
	}
}

// TestAuditGoesToSegmentedLog: with a backend and no flat audit file, the
// audit trail lands in the backend's segmented log, line-aligned.
func TestAuditGoesToSegmentedLog(t *testing.T) {
	backend := store.NewMemory()
	d, err := newWarm(stateSpec(1), Options{Config: stateConfig(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	driveRounds(d, 2)
	if err := d.audit.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := backend.AuditLines()
	if len(lines) == 0 {
		t.Fatal("no audit lines reached the backend")
	}
	for _, ln := range lines {
		if len(ln) == 0 || ln[0] != '{' || ln[len(ln)-1] != '}' {
			t.Fatalf("audit record not line-aligned: %q", ln)
		}
	}
}

// rawResp is a minimal HTTP probe result.
type rawResp struct {
	code       int
	retryAfter string
	body       []byte
}

func getRaw(t *testing.T, url string) rawResp {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := make([]byte, 0, 1024)
	buf := make([]byte, 1024)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return rawResp{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After"), body: body}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divot/client"
	"divot/internal/attest"
)

// TestAssignmentTableMatchesRing drives the herd through seeded liveness
// and fleet changes and checks, after every step, that the assignment table
// is exactly what a per-bus ring.Pick over the live owners gives, and that
// the per-daemon counts add up.
func TestAssignmentTableMatchesRing(t *testing.T) {
	names := []string{"d0", "d1", "d2", "d3", "d4"}
	addrs := make([]daemonAddr, len(names))
	for i, n := range names {
		addrs[i] = daemonAddr{Name: n, Addr: "http://127.0.0.1:1"}
	}
	h, err := newHerd(herdConfig{Daemons: addrs})
	if err != nil {
		t.Fatal(err)
	}
	buses := busNames(40)
	// The model the table is checked against, kept apart from the herd.
	up := map[string]bool{}
	serves := map[string]map[string]bool{}
	r := rand.New(rand.NewSource(1))
	for step := 0; step < 300; step++ {
		name := names[r.Intn(len(names))]
		if r.Intn(3) == 0 {
			h.setDown(name, "test")
			up[name] = false
		} else {
			var links []client.LinkSummary
			serves[name] = map[string]bool{}
			for _, b := range buses {
				if r.Intn(2) == 0 {
					links = append(links, client.LinkSummary{ID: b})
					serves[name][b] = true
				}
			}
			h.setUp(name, links, true)
			up[name] = true
		}

		counts := map[string]int{}
		h.mu.RLock()
		for _, b := range buses {
			want, wantOK := h.ring.Pick(b, func(n string) bool { return up[n] && serves[n][b] })
			got, gotOK := h.assigned[b]
			if got != want || gotOK != wantOK {
				t.Fatalf("step %d: bus %s assigned %q/%v, ring picks %q/%v", step, b, got, gotOK, want, wantOK)
			}
			if wantOK {
				counts[want]++
			}
		}
		for _, n := range names {
			if h.counts[n] != counts[n] {
				t.Fatalf("step %d: %s counts %d buses, want %d", step, n, h.counts[n], counts[n])
			}
		}
		h.mu.RUnlock()
	}
}

// TestAttestRejectsAnswerOffPlan: a shard whose answer is not its planned
// targets in request order — reordered, short, with an extra verdict, or
// folding a duplicated target — becomes a ShardError naming its planned
// buses, the response is partial, and none of its verdicts is placed. The
// honest shard's verdicts still land in request order.
func TestAttestRejectsAnswerOffPlan(t *testing.T) {
	buses := busNames(12)
	events := map[string][]attest.Event{}
	for _, b := range buses {
		events[b] = nil
	}
	// A is honest, B answers off plan once a case bends it.
	faulty := newFakeShard(t, "", events)
	h := herdOverFakes(t, newFakeShard(t, "", events), faulty)
	ctx := context.Background()
	var dup string // a bus B serves, requested twice below
	for _, b := range buses {
		if owner, _ := h.Assign(b); owner == "B" {
			dup = b
			break
		}
	}
	if dup == "" {
		t.Fatal("the ring gave B no bus")
	}
	request := append([]string{dup}, buses...)

	cases := []struct {
		name string
		bend func([]string) []string
	}{
		{"out of order", func(ids []string) []string {
			out := append([]string(nil), ids...)
			out[0], out[len(out)-1] = out[len(out)-1], out[0]
			return out
		}},
		{"short", func(ids []string) []string { return ids[:len(ids)-1] }},
		{"extra id", func(ids []string) []string { return append(append([]string(nil), ids...), "dimm99") }},
		{"duplicates folded", func(ids []string) []string {
			seen := map[string]bool{}
			var out []string
			for _, id := range ids {
				if !seen[id] {
					seen[id] = true
					out = append(out, id)
				}
			}
			return out
		}},
	}
	// check runs on the assignment taken before the attest: a fault moves
	// B's buses to A for the next request.
	check := func(name string, owners map[string]string, resp attest.FederatedAttestResponse, wantFault bool) {
		t.Helper()
		planned := map[string]bool{}
		for _, e := range resp.Errors {
			if e.Daemon != "B" || e.Code != attest.CodeUnavailable {
				t.Errorf("%s: unexpected error entry %+v", name, e)
			}
			for _, id := range e.Links {
				planned[id] = true
			}
		}
		if got := len(resp.Errors) > 0; got != wantFault || resp.Complete == wantFault {
			t.Errorf("%s: complete=%v with %d errors, want a fault: %v", name, resp.Complete, len(resp.Errors), wantFault)
		}
		var want []string
		for _, id := range request {
			if owners[id] == "A" || !wantFault {
				want = append(want, id)
			}
		}
		if len(resp.Results) != len(want) {
			t.Fatalf("%s: %d verdicts, want %d", name, len(resp.Results), len(want))
		}
		for i, rep := range resp.Results {
			if rep.ID != want[i] || (wantFault && rep.Daemon != "A") {
				t.Errorf("%s: verdict %d is %s from %s, want %s from A", name, i, rep.ID, rep.Daemon, want[i])
			}
			if planned[rep.ID] {
				t.Errorf("%s: bus %s has both a verdict and an error entry", name, rep.ID)
			}
		}
	}
	owners := map[string]string{}
	for _, b := range buses {
		owners[b], _ = h.Assign(b)
	}
	for _, tc := range cases {
		faulty.mu.Lock()
		faulty.bend = nil
		faulty.mu.Unlock()
		if err := h.probeOnce(ctx); err != nil || !h.isUp("B") {
			t.Fatalf("%s: reviving B: %v", tc.name, err)
		}
		resp, werr := h.Attest(ctx, request)
		if werr != nil {
			t.Fatalf("%s: honest attest: %v", tc.name, werr)
		}
		check(tc.name+" (honest)", owners, resp, false)

		faulty.mu.Lock()
		faulty.bend = tc.bend
		faulty.mu.Unlock()
		resp, werr = h.Attest(ctx, request)
		if werr != nil {
			t.Fatalf("%s: %v", tc.name, werr)
		}
		check(tc.name, owners, resp, true)
		if h.isUp("B") {
			t.Errorf("%s: the faulty shard is still up", tc.name)
		}
	}
}

// TestHerdMetricsSeries pins the herd's /metrics series after a fixed
// sequence — discovery, a complete attest, a history read, a daemon death
// and a partial attest — with every counter, gauge and histogram count. A
// fan-out series appears only once its daemon has served that operation.
// Bucket and sum lines are timings and are left out.
func TestHerdMetricsSeries(t *testing.T) {
	h, pack := newTestHerd(t, 2, busNames(4))
	ctx := context.Background()
	if _, werr := h.Attest(ctx, nil); werr != nil {
		t.Fatal(werr)
	}
	if _, werr := h.History(ctx, "dimm00"); werr != nil {
		t.Fatal(werr)
	}
	victim, _ := h.Assign("dimm00")
	var victimIdx int
	fmt.Sscanf(victim, "d%d", &victimIdx)
	pack[victimIdx].stop()
	if _, werr := h.Attest(ctx, nil); werr != nil {
		t.Fatal(werr)
	}

	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if strings.HasPrefix(line, "# TYPE") || !strings.HasPrefix(line, "#") &&
			!strings.Contains(line, "_bucket{") && !strings.Contains(line, "_sum{") {
			got = append(got, line)
		}
	}
	want := []string{
		`# TYPE divotherd_attest_total counter`,
		`divotherd_attest_total{outcome="complete"} 1`,
		`divotherd_attest_total{outcome="partial"} 1`,
		`# TYPE divotherd_daemon_up gauge`,
		`divotherd_daemon_up{daemon="d0"} 0`,
		`divotherd_daemon_up{daemon="d1"} 1`,
		`# TYPE divotherd_fanout_seconds histogram`,
		`divotherd_fanout_seconds_count{daemon="d0",op="attest"} 2`,
		`divotherd_fanout_seconds_count{daemon="d0",op="history"} 1`,
		`divotherd_fanout_seconds_count{daemon="d0",op="probe"} 1`,
		`divotherd_fanout_seconds_count{daemon="d1",op="attest"} 2`,
		`divotherd_fanout_seconds_count{daemon="d1",op="probe"} 1`,
		`# TYPE divotherd_rebalance_total counter`,
		`divotherd_rebalance_total 2`,
		`# TYPE divotherd_shard_buses gauge`,
		`divotherd_shard_buses{daemon="d0"} 0`,
		`divotherd_shard_buses{daemon="d1"} 4`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics series:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"divot/client"
	"divot/internal/attest"
	"divot/internal/daemon"
)

// benchPack builds a sharded federation: nb buses partitioned contiguously
// across nd daemons (each bus owned by exactly one daemon), attestation
// caches enabled so iterations measure the herd — assignment, fan-out,
// merge, encode — rather than re-measurement physics.
func benchPack(b *testing.B, nd, nb int) *Herd {
	b.Helper()
	addrs := make([]daemonAddr, nd)
	per := nb / nd
	for di := 0; di < nd; di++ {
		spec := daemon.Spec{Seed: 7, Listen: "127.0.0.1:0", IntervalMS: 60_000,
			MaxStalenessMS: 3_600_000}
		lo, hi := di*per, (di+1)*per
		if di == nd-1 {
			hi = nb
		}
		for i := lo; i < hi; i++ {
			spec.Buses = append(spec.Buses, daemon.BusSpec{ID: fmt.Sprintf("dimm%06d", i)})
		}
		d, err := newPackDaemon(spec)
		if err != nil {
			b.Fatalf("daemon %d: %v", di, err)
		}
		srv := httptest.NewServer(d.Handler())
		b.Cleanup(srv.Close)
		addrs[di] = daemonAddr{Name: fmt.Sprintf("d%d", di), Addr: srv.URL}
	}
	h, err := NewHerd(context.Background(), herdConfig{
		Daemons: addrs,
		Timeout: 10 * time.Minute, // a 100k-bus cold pass is minutes of measurement
		Retry:   client.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		b.Fatalf("NewHerd: %v", err)
	}
	return h
}

// herdAttest drives POST /v1/attest with a raw reader: a 100k-bus federated
// response is tens of MB of enveloped JSON, past the SDK's read cap.
func herdAttest(b *testing.B, base string) attest.FederatedAttestResponse {
	b.Helper()
	resp, err := http.Post(base+"/v1/attest", "application/json", strings.NewReader(""))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("attest status %d: %.200s", resp.StatusCode, raw)
	}
	var out attest.FederatedAttestResponse
	if err := attest.ParseBody(raw, &out); err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkFederatedAttest measures a whole-fleet attestation through one
// divotherd endpoint — ring assignment, bounded fan-out across the pack,
// request-order merge, envelope encode — over warm daemon caches, sweeping
// daemon count × fleet size. The first (untimed) attest is the cold pass
// that populates every daemon's attestation cache. -short keeps only the
// smallest fleet: the big rows calibrate up to 100k buses first.
func BenchmarkFederatedAttest(b *testing.B) {
	for _, nd := range []int{1, 4, 16} {
		for _, nb := range []int{1_000, 10_000, 100_000} {
			b.Run(fmt.Sprintf("daemons=%d/buses=%d", nd, nb), func(b *testing.B) {
				if testing.Short() && (nb > 1_000 || nd > 4) {
					b.Skipf("skipping %d buses × %d daemons in -short mode", nb, nd)
				}
				if nd == 1 && nb == 100_000 {
					// A single 100k-bus shard answers ~25 MB of enveloped JSON
					// per attest — past the SDK's 16 MiB read cap, so the herd
					// fails the shard with an error naming the cap. Sharding the pack
					// is the supported way to reach 100k buses (the nd=4 and
					// nd=16 rows); this cell documents the limit instead of
					// timing it.
					b.Skip("one daemon serving 100k buses exceeds the per-shard response cap; federate instead")
				}
				h := benchPack(b, nd, nb)
				srv := httptest.NewServer(h.Handler())
				defer srv.Close()

				// The herd's correctness property is completeness — every bus
				// answered once. all_accepted is not asserted: at fleet scale
				// the light instrument's noise floor throws the occasional
				// false tamper positive, which is a physics artifact, not a
				// federation bug.
				cold := herdAttest(b, srv.URL)
				if !cold.Complete || len(cold.Results) != nb {
					b.Fatalf("cold pass: complete=%v results=%d/%d (errors: %.300v)",
						cold.Complete, len(cold.Results), nb, cold.Errors)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					warm := herdAttest(b, srv.URL)
					if !warm.Complete {
						b.Fatalf("warm pass went partial: %.300v", warm.Errors)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nb), "ns/bus")
			})
		}
	}
}

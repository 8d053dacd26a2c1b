package divot_test

// Micro-benchmark of the remote attestation round trip: the client SDK's
// Attest against a live HTTP server whose handler runs a real calibrated
// link's Authenticate — transport, envelope encoding/decoding, and the
// spot-check measurement itself, end to end. This is the per-verification
// latency a remote verifier pays on a healthy network (retries never fire).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"divot"
	"divot/client"
	"divot/internal/attest"
)

func BenchmarkClientRoundTrip(b *testing.B) {
	sys := divot.NewSystem(77, divot.DefaultConfig())
	link, err := sys.NewLink("dimm0")
	if err != nil {
		b.Fatal(err)
	}
	if err := link.Calibrate(); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		res := link.Authenticate()
		attest.WriteData(w, http.StatusOK, attest.AttestResponse{
			Results: []attest.AuthReport{{
				ID: "dimm0", Accepted: res.Accepted, Score: res.Score,
				Tampered: res.Tampered, TamperPosition: res.TamperPosition,
				Health: "ok",
			}},
			AllAccepted: res.Accepted,
		})
	}))
	defer srv.Close()
	c, err := client.New(srv.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	rejected := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Attest(ctx, "dimm0")
		if err != nil {
			b.Fatal(err)
		}
		// A clean bus spot-checked at the default threshold still has a
		// small false-reject rate (9 in 5000 calls at this seed, the first
		// the 1535th), so a rejection is a verdict to count, not a failure.
		if !res.AllAccepted {
			rejected++
		}
	}
	b.ReportMetric(float64(rejected)/float64(b.N), "rejected/op")
}

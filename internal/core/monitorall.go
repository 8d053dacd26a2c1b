package core

import (
	"context"
	"errors"

	"divot/internal/pool"
)

// MonitorAllCtx runs one monitoring round on every link concurrently, with at
// most `parallelism` worker goroutines (0 = runtime.GOMAXPROCS(0), 1 =
// sequential). Each link owns disjoint instruments, random streams, gates and
// alert history, so the rounds are independent and the combined outcome —
// returned alerts, gate states, and each instrument's measurement history —
// is bit-identical to calling MonitorOnce on each link in slice order.
//
// The returned slice is indexed like links: element i holds the alerts link i
// raised this round. Per-link protocol errors (uncalibrated link, lost
// enrollment) are joined and returned alongside the rounds that succeeded;
// a failed link's alert slice is whatever its round raised before failing.
//
// The one sharing caveat: monitoring reads each endpoint's observed line but
// never mutates it, so two links may safely observe the same physical line
// (the cold-boot scenario). Mounting or removing attacks concurrently with
// MonitorAllCtx is a data race, exactly as it is with MonitorOnce.
//
// Telemetry: when links carry sinks, each link's events are buffered in a
// private recorder for the duration of the concurrent section and drained into
// the original sinks in slice order afterwards, so a shared sink observes the
// same event sequence at every worker count.
//
// Cancellation is cooperative: once ctx is done no further link starts its
// round, while rounds already in flight run to completion (tearing a round
// down midway would desynchronize an endpoint's robustness state). The returned ran slice reports which links
// actually monitored; ctx's error, when set, is joined into the returned
// error. Determinism is unaffected for the links that ran — cancellation
// only trims the tail of the work list.
func MonitorAllCtx(ctx context.Context, links []*Link, parallelism int) ([][]Alert, []bool, error) {
	out := make([][]Alert, len(links))
	ran := make([]bool, len(links))
	errs := make([]error, len(links))
	workers := pool.Workers(parallelism)
	if workers > 1 && len(links) > 1 {
		recs, orig := swapRecorders(links)
		defer restoreAndDrain(links, recs, orig)
	}
	pool.Run(len(links), workers, func(_, i int) {
		if ctx.Err() != nil {
			return
		}
		ran[i] = true
		out[i], errs[i] = links[i].MonitorOnce()
	})
	return out, ran, errors.Join(append(errs, ctx.Err())...)
}

package itdr

import (
	"sync"

	"divot/internal/pool"
	"divot/internal/txline"
)

// MeasureSeries acquires n consecutive measurements of line under env and
// streams them, in measurement order, to consume(i, m) for i = 0..n-1. Each
// Measurement aliases working memory and is valid only for the duration of
// its callback (like MeasureInto); consume runs serially, never concurrently
// with itself.
//
// The series is bit-identical to n sequential MeasureInto calls — same
// waveforms, same telemetry events in the same order, same instrument state
// afterwards — at any worker count, the PR-1 contract. That holds because
// every per-measurement quantity derives from the measurement's sequence
// number, not from scheduling: environment conditions are pre-sampled from
// envRN in sequence order, and each measurement reseeds its sub-streams from
// ("measurement", seq).
//
// Workers (≤ 0 means GOMAXPROCS) bounds the fan-out; memory stays at
// O(workers) arenas regardless of n. Each capture itself runs on one
// goroutine, so the series is the finest unit an enrollment fans out over.
// The fan-out engages only for clock-triggered instruments on their config
// modulator with no fault injector — cold enrollment — because only there
// is the instrument state (forward edge, per-bin inverse maps) frozen after
// the first measurement; everything else runs the plain sequential loop.
func (r *Reflectometer) MeasureSeries(a *Arena, line *txline.Line, env txline.Environment, n, workers int, consume func(i int, m Measurement)) {
	if n <= 0 {
		return
	}
	workers = pool.Workers(workers)
	if workers > n-1 {
		workers = n - 1 // measurement 0 always runs inline
	}
	if workers <= 1 || r.wu == nil || r.inj != nil {
		for i := 0; i < n; i++ {
			consume(i, r.MeasureInto(a, line, env))
		}
		return
	}

	// Pre-sample the environment in sequence order. Nothing else consumes
	// envRN during a measurement (sub-streams are derived by pure child
	// reseeding), so drawing the conditions up front is the exact sequence
	// the interleaved sequential path draws.
	conds := make([]txline.Condition, n)
	for i := range conds {
		conds[i] = env.Sample(r.envRN)
	}
	seq0 := r.seq
	r.seq += uint64(n)

	// The leader runs inline: it builds the per-bin inverse maps exactly as
	// the first sequential measurement would, then promotes every bin — the
	// same promotion the second sequential measurement performs — so the
	// fanned measurements see frozen, promoted instrument state.
	consume(0, r.measureAt(a, line, conds[0], seq0+1, false))
	for _, inv := range r.binInv {
		if inv != nil {
			inv.Promote()
		}
	}

	arenas := make([]*Arena, workers)
	arenas[0] = a
	for w := 1; w < workers; w++ {
		arenas[w] = arenaPool.Get().(*Arena)
	}
	defer func() {
		for w := 1; w < workers; w++ {
			arenaPool.Put(arenas[w])
		}
	}()

	// Ordered hand-off: workers measure concurrently into their own arenas,
	// but telemetry emission and consume happen strictly in measurement
	// order, one at a time. Panics — from a measurement or from consume —
	// are parked rather than propagated through pool.Run: a propagated panic
	// would make the pool drop unclaimed tasks and strand later workers
	// waiting for turns that never come. The first panic wins, later
	// consumes are skipped (the sequential path would not have reached them
	// either), and it is re-raised once every worker has drained.
	var (
		mu        sync.Mutex
		turn      = sync.NewCond(&mu)
		next      = 1
		seriesErr any
	)
	park := func(p any) {
		mu.Lock()
		if seriesErr == nil {
			seriesErr = p
		}
		mu.Unlock()
	}
	pool.Run(n-1, workers, func(worker, idx int) {
		i := idx + 1
		seq := seq0 + uint64(i) + 1
		var m Measurement
		ok := false
		func() {
			defer func() {
				if p := recover(); p != nil {
					park(p)
				}
			}()
			m = r.measureAt(arenas[worker], line, conds[i], seq, true)
			ok = true
		}()
		mu.Lock()
		for next != i {
			turn.Wait()
		}
		skip := seriesErr != nil
		mu.Unlock()
		defer func() {
			if p := recover(); p != nil {
				park(p)
			}
			mu.Lock()
			next++
			turn.Broadcast()
			mu.Unlock()
		}()
		if ok && !skip {
			r.emitMeasurement(seq, m.Saturated)
			consume(i, m)
		}
	})
	if seriesErr != nil {
		panic(seriesErr)
	}
}

// Package pool provides the bounded, deterministic worker fan-out used by
// every parallel layer of the reproduction: rigs and trials of an
// experiment, wires of a multi-wire bus, and links of a monitored system or
// a daemon's cold start. The unit of work is always an independent
// instrument; one link's captures run in order on one goroutine.
//
// The pool makes no ordering promises about *execution*; determinism is a
// contract on the tasks instead: fn(i) must depend only on i (each task
// deriving its randomness from its own labelled rng child and writing only to
// its own slot of a pre-sized result slice). Under that contract the combined
// result is bit-identical at any worker count, which is what the repo's
// parallelism-invariance tests assert.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a parallelism knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged. Every
// Parallelism field in the repo funnels through this, so "0" uniformly means
// "use the machine".
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Run executes fn(worker, i) for every i in [0, n) across at most `workers`
// goroutines. Tasks are handed out dynamically (an atomic cursor), so uneven
// task costs still balance; worker identifies which goroutine runs the task
// (0 <= worker < effective workers) so callers can reuse per-worker scratch
// buffers without locking. With workers <= 1 (or n <= 1) everything runs
// inline on the calling goroutine — the exact sequential path, no goroutines
// spawned.
func Run(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	// A task panic must reach the caller as it would on the inline path, not
	// kill the process from an anonymous goroutine. The first panic value is
	// kept and re-raised after all workers drain.
	var panicked atomic.Pointer[any]
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}

package itdr

import (
	"sync"

	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/txline"
)

// Arena is the reusable working memory of one measurement: the reflection
// synthesis scratch, the coupler output, the reconstructed IIP, the per-bin
// accounting slices, and the reference scratch and random streams.
// MeasureInto recycles it across measurements so the steady-state monitoring
// loop allocates nothing; callers without a natural owner go through
// Measure, which borrows an arena from a process-wide pool.
//
// Ownership rules: an arena serves one measurement at a time, on one
// goroutine, and the Measurement returned by MeasureInto aliases the arena's
// buffers — it is valid until the next MeasureInto on the same arena. Arenas are instrument-agnostic: the same
// arena may serve different Reflectometers on successive measurements, since
// every buffer is resized and every stream reseeded before use.
type Arena struct {
	reflect txline.ReflectScratch
	seen    *signal.Waveform

	out       *signal.Waveform
	binCycles []int
	saturated []bool

	// scratch and binRN are the reference-level buffer and the bin stream
	// every bin reuses in turn; mStream is the per-measurement parent binRN
	// is re-derived from at the start of each bin. draws holds one bin's
	// batched normal draws on the plain trial path.
	scratch []float64
	draws   []float64
	binRN   *rng.Stream
	mStream *rng.Stream

	ctx binCtx
}

// NewArena returns an empty arena; buffers are sized lazily on first use.
func NewArena() *Arena { return &Arena{} }

// prepare sizes the arena for a measurement of `bins` bins with `trials`
// reference levels (and up to two normal draws each) per bin.
func (a *Arena) prepare(rate float64, bins, trials int) {
	a.out = signal.Reuse(a.out, rate, bins)
	if cap(a.binCycles) < bins {
		a.binCycles = make([]int, bins)
	}
	a.binCycles = a.binCycles[:bins]
	if cap(a.saturated) < bins {
		a.saturated = make([]bool, bins)
	}
	a.saturated = a.saturated[:bins]
	if cap(a.scratch) < trials {
		a.scratch = make([]float64, trials)
	}
	a.scratch = a.scratch[:trials]
	if cap(a.draws) < 2*trials {
		a.draws = make([]float64, 2*trials)
	}
	if a.binRN == nil {
		a.binRN = rng.New(0)
		a.mStream = rng.New(0)
	}
}

// arenaPool backs Measure for callers that do not own an arena (calibration,
// spot checks, tests). Measurements returned by Measure are detached copies,
// so pooled arenas never leak aliased memory.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

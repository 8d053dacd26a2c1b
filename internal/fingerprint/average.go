package fingerprint

import (
	"fmt"

	"divot/internal/signal"
)

// Averager accumulates measurement waveforms into a running pointwise sum so
// enrollment can average EnrollMeasurements captures while holding O(1)
// waveforms instead of retaining every capture. Combined with
// Pipeline.FromAverage it is bit-identical to Pipeline.Average over the same
// waveforms in the same order: both perform the identical left-to-right
// AddInPlace fold into a zeroed accumulator and the identical 1/n Scale.
//
// The accumulator buffer survives Reset, so a reused Averager (one lives on
// each core.Endpoint) allocates nothing after its first enrollment. An
// Averager serves one goroutine; the added waveform is only read and may be
// arena-backed scratch.
type Averager struct {
	acc *signal.Waveform
	n   int
}

// Reset discards any accumulated measurements, keeping the buffer.
func (a *Averager) Reset() { a.n = 0 }

// Add folds one measurement into the running sum. Waveforms after the first
// must share its grid (same panic as Pipeline.Average's AddInPlace fold).
func (a *Averager) Add(w *signal.Waveform) {
	if a.n == 0 {
		a.acc = signal.Reuse(a.acc, w.Rate, w.Len())
	}
	signal.AddInPlace(a.acc, w)
	a.n++
}

// Count returns the number of measurements folded in since the last Reset.
func (a *Averager) Count() int { return a.n }

// FromAverage finalizes the accumulated mean, repairs the bins the mask
// marks dead (FromWaveformMasked; an empty mask repairs nothing), and runs
// it through the IIP extraction pipeline — enrollment, and the
// re-enrollment of a degraded instrument. The returned fingerprint owns its
// memory and is safe to enroll or retain. Averaging zero measurements is an
// error, matching Pipeline.Average.
func (p Pipeline) FromAverage(a *Averager, m BinMask) (IIP, error) {
	if a.n == 0 {
		return IIP{}, fmt.Errorf("fingerprint: cannot average zero measurements")
	}
	mean := signal.Scale(a.acc, 1/float64(a.n))
	return p.FromWaveformMasked(mean, m), nil
}

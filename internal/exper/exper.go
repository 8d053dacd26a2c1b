// Package exper regenerates every table and figure of the paper's
// evaluation (§IV) plus the ablations DESIGN.md calls out. Each experiment
// is a pure function from a seed and a mode to a Result whose rows print the
// same quantities the paper reports; cmd/divotbench and the root bench suite
// both drive these generators.
package exper

import (
	"fmt"
	"sort"
	"strings"

	"divot/internal/fingerprint"
	"divot/internal/itdr"
	"divot/internal/pool"
	"divot/internal/rng"
	"divot/internal/signal"
	"divot/internal/txline"
)

// Parallelism bounds the worker goroutines the fleet operations below
// (construction, enrollment, scoring) fan rigs across; each rig's captures
// run on the goroutine that handles the rig. 0 (the default) selects
// runtime.GOMAXPROCS(0); 1 reproduces the fully sequential path. Experiment
// results are bit-identical at every setting — each rig derives its
// randomness from its own labelled stream child — so this knob trades
// wall-clock only, never output.
var Parallelism int

// Mode trades runtime for statistical depth.
type Mode int

const (
	// Quick runs in seconds; suitable for benches and CI.
	Quick Mode = iota
	// Full approaches the paper's sample sizes; takes tens of seconds per
	// experiment.
	Full
)

// String names the mode.
func (m Mode) String() string {
	if m == Full {
		return "full"
	}
	return "quick"
}

// Result is one regenerated artifact.
type Result struct {
	// ID is the experiment identity from DESIGN.md's index (e.g. "fig7b").
	ID string
	// Title describes the artifact.
	Title string
	// PaperClaim is what the paper reports for this artifact.
	PaperClaim string
	// Headers and Rows form the reproduced table/series.
	Headers []string
	Rows    [][]string
	// Notes carries caveats (substitutions, scale differences).
	Notes []string
}

// String renders the result as an aligned text table.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.PaperClaim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.PaperClaim)
	}
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(r.Headers)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// rig is one line with its own iTDR and pipeline — a device under test.
type rig struct {
	line *txline.Line
	refl *itdr.Reflectometer
	pipe fingerprint.Pipeline
	ref  fingerprint.IIP
}

// newRig manufactures a line and instrument from the stream.
func newRig(id string, icfg itdr.Config, lcfg txline.Config, stream *rng.Stream) *rig {
	sub := stream.Child("rig-" + id)
	return &rig{
		line: txline.New(id, lcfg, sub.Child("line")),
		refl: itdr.MustNew(icfg, txline.DefaultProbe(), nil, sub.Child("itdr")),
		pipe: fingerprint.DefaultPipeline(),
	}
}

// measure acquires one processed fingerprint.
func (r *rig) measure(env txline.Environment) fingerprint.IIP {
	return r.pipe.FromWaveform(r.refl.Measure(r.line, env).IIP)
}

// meanSimilarity scores k fresh presentations against the enrolled reference
// and returns the mean similarity. A single-shot score carries a couple of
// percent of counting noise at the default trial budget, enough to scramble
// the ordering of nearby table rows; averaging k presentations shrinks it by
// √k so row differences reflect the swept variable, not measurement luck.
func (r *rig) meanSimilarity(env txline.Environment, k int) float64 {
	var s float64
	for i := 0; i < k; i++ {
		s += fingerprint.Similarity(r.measure(env), r.ref)
	}
	return s / float64(k)
}

// presentations returns the per-row measurement count the ablation tables
// average over.
func presentations(mode Mode) int {
	if mode == Full {
		return 8
	}
	return 4
}

// enroll stores the averaged reference fingerprint.
func (r *rig) enroll(env txline.Environment, n int) {
	ws := make([]*signal.Waveform, n)
	for i := range ws {
		ws[i] = r.refl.Measure(r.line, env).IIP
	}
	f, err := r.pipe.Average(ws)
	if err != nil {
		panic(err) // n > 0 by construction
	}
	r.ref = f
}

// fleet builds the paper's six devices under test. Rig identity derives only
// from the stream and the rig's label (never from construction order), so the
// rigs are manufactured concurrently across Parallelism workers.
func fleet(icfg itdr.Config, lcfg txline.Config, stream *rng.Stream, n int) []*rig {
	rigs := make([]*rig, n)
	pool.Run(n, pool.Workers(Parallelism), func(_, i int) {
		rigs[i] = newRig(fmt.Sprintf("tx%d", i), icfg, lcfg, stream)
	})
	return rigs
}

// enrollFleet enrolls every rig, fanning rigs across Parallelism workers.
// Each rig consumes only its own instrument streams, so the enrolled
// references are identical to enrolling sequentially.
func enrollFleet(rigs []*rig, env txline.Environment, n int) {
	pool.Run(len(rigs), pool.Workers(Parallelism), func(_, i int) {
		rigs[i].enroll(env, n)
	})
}

// scores collects genuine and impostor similarity scores: every rig is
// measured `per` times under env, and each measurement is scored against
// every rig's enrolled reference. Rigs fan out across Parallelism workers —
// a rig's measurements must stay ordered (its instrument streams advance per
// measurement), so the rig is the unit of concurrency; per-rig score slices
// are concatenated in rig order afterwards, reproducing the sequential
// output exactly.
func scores(rigs []*rig, env txline.Environment, per int) (genuine, impostor []float64) {
	gen := make([][]float64, len(rigs))
	imp := make([][]float64, len(rigs))
	pool.Run(len(rigs), pool.Workers(Parallelism), func(_, i int) {
		r := rigs[i]
		for k := 0; k < per; k++ {
			m := r.measure(env)
			for _, other := range rigs {
				s := fingerprint.Similarity(m, other.ref)
				if other == r {
					gen[i] = append(gen[i], s)
				} else {
					imp[i] = append(imp[i], s)
				}
			}
		}
	})
	for i := range rigs {
		genuine = append(genuine, gen[i]...)
		impostor = append(impostor, imp[i]...)
	}
	return genuine, impostor
}

// distSummary formats a score distribution.
func distSummary(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return fmt.Sprintf("n=%d min=%.4f p5=%.4f median=%.4f p95=%.4f max=%.4f",
		n, s[0], s[n/20], s[n/2], s[n-1-n/20], s[n-1])
}

// fmtF formats a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.6g", v) }

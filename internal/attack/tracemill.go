package attack

import (
	"fmt"

	"divot/internal/txline"
)

// TraceMill models supply-chain PCB tampering: copper is milled away (or a
// trace is thinned and rerouted) to insert an interposer. The damaged copper
// has higher series resistance and a raised local impedance. This is the one
// attack class the DC-resistance baseline (§V, Paley et al.) is actually
// built for; DIVOT sees it as a localized IIP change like any other.
type TraceMill struct {
	// Position is the milled location in meters from the source.
	Position float64
	// DeltaZ is the impedance rise over the damaged section.
	DeltaZ float64
	// DeltaR is the series resistance added, in ohms (what a DC monitor
	// measures).
	DeltaR float64
	// Extent is the damaged length.
	Extent float64
}

// DefaultTraceMill returns a typical interposer-preparation cut at the given
// position.
func DefaultTraceMill(position float64) *TraceMill {
	return &TraceMill{Position: position, DeltaZ: 6, DeltaR: 0.8, Extent: 2e-3}
}

// Name implements Attack.
func (a *TraceMill) Name() string { return "trace-mill" }

func (a *TraceMill) key() string { return fmt.Sprintf("tracemill-%p", a) }

// Apply mills the trace. DeltaR rides along in the perturbation via the
// Resistive kind; the impedance change carries DeltaZ.
func (a *TraceMill) Apply(l *txline.Line) {
	l.ApplyPerturbation(a.key(), txline.Perturbation{
		Position: a.Position, Extent: a.Extent, DeltaZ: a.DeltaZ,
		Kind: txline.KindResistive,
	})
}

// Remove is physically impossible — milled copper does not grow back — so
// removing the attack leaves the full perturbation in place, matching the
// permanence the paper observed for invasive tampering.
func (a *TraceMill) Remove(*txline.Line) {}

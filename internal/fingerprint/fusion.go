package fingerprint

import (
	"math"
)

// FuseSimilarities combines per-wire similarity scores from monitoring
// several wires of the same bus into one decision score (§IV-C: "monitoring
// multiple wires on a bus can exponentially increase authentication
// accuracy"). The combined score is the geometric mean, so one badly
// mismatched wire drags the whole bus score down, while independent
// per-wire noise averages out.
func FuseSimilarities(scores []float64) float64 {
	if len(scores) == 0 {
		panic("fingerprint: fusing zero scores")
	}
	logSum := 0.0
	for _, s := range scores {
		if s <= 0 {
			return 0
		}
		logSum += math.Log(s)
	}
	return math.Exp(logSum / float64(len(scores)))
}

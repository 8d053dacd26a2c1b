package bus

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScramblerWhitensZeros(t *testing.T) {
	s := NewScrambler()
	bits := make([]uint8, 8192)
	s.ScrambleBits(bits)
	density := onesDensity(bits)
	if math.Abs(density-0.5) > 0.05 {
		t.Errorf("scrambled all-zeros density = %v, want ~0.5", density)
	}
	trig := triggerOpportunities(bits)
	rate := float64(trig) / float64(len(bits))
	if math.Abs(rate-0.25) > 0.05 {
		t.Errorf("trigger rate on scrambled zeros = %v, want ~0.25", rate)
	}
}

func TestScramblerRoundTrip(t *testing.T) {
	// Additive scrambling is its own inverse when both sides use identical
	// keystreams.
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		tx := NewScrambler()
		rx := NewScrambler()
		bits := BytesToBits(data)
		scrambled := tx.ScrambleBits(append([]uint8(nil), bits...))
		descrambled := rx.ScrambleBits(append([]uint8(nil), scrambled...))
		for i := range bits {
			if bits[i] != descrambled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScramblerPeriod(t *testing.T) {
	// A maximal-length 7-bit LFSR has period 127.
	s := NewScrambler()
	first := make([]uint8, 127)
	for i := range first {
		first[i] = s.NextBit()
	}
	for i := 0; i < 127; i++ {
		if s.NextBit() != first[i] {
			t.Fatalf("keystream not periodic with 127 at position %d", i)
		}
	}
	// And it is not shorter: the first period must contain both values.
	if d := onesDensity(first); d == 0 || d == 1 {
		t.Error("degenerate keystream")
	}
}

func TestBitsBytesRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		bits := BytesToBits(data)
		if len(bits) != 8*len(data) {
			return false
		}
		back := make([]byte, len(data))
		for i, b := range bits {
			back[i/8] |= (b & 1) << (7 - i%8)
		}
		for i := range data {
			if data[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriggerOpportunitiesKnown(t *testing.T) {
	// 1,0 transitions: positions (0,1) and (3,4).
	bits := []uint8{1, 0, 1, 1, 0, 0, 1}
	if got := triggerOpportunities(bits); got != 2 {
		t.Errorf("TriggerOpportunities = %d, want 2", got)
	}
	if triggerOpportunities(nil) != 0 {
		t.Error("empty stream should have no triggers")
	}
}

func TestOnesDensityEdge(t *testing.T) {
	if onesDensity(nil) != 0 {
		t.Error("empty density should be 0")
	}
	if onesDensity([]uint8{1, 1, 0, 0}) != 0.5 {
		t.Error("density of half ones should be 0.5")
	}
}

// triggerOpportunities counts the 1→0 transitions in the bit stream — the
// launches the FIFO trigger can use (§II-E).
func triggerOpportunities(bits []uint8) int {
	n := 0
	for i := 0; i+1 < len(bits); i++ {
		if bits[i] == 1 && bits[i+1] == 0 {
			n++
		}
	}
	return n
}

// onesDensity returns the fraction of ones in the bit stream.
func onesDensity(bits []uint8) float64 {
	if len(bits) == 0 {
		return 0
	}
	ones := 0
	for _, b := range bits {
		ones += int(b)
	}
	return float64(ones) / float64(len(bits))
}

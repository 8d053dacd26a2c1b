package bus

import (
	"math"
	"testing"

	"divot/internal/rng"
	"divot/internal/txline"
)

func newTestLink(p TrafficPattern, seed uint64) *Link {
	stream := rng.New(seed)
	line := txline.New("lane0", txline.DefaultConfig(), stream.Child("line"))
	return NewLinkEncoded(line, p, EncodingScrambler, stream)
}

// stepRate runs the lane for n bits and returns the fraction of cycles that
// offered a trigger.
func stepRate(l *Link, n int) float64 {
	triggers := 0
	for range n {
		if _, trig := l.Step(); trig {
			triggers++
		}
	}
	return float64(triggers) / float64(n)
}

func TestLinkRandomTrafficTriggerRate(t *testing.T) {
	l := newTestLink(PatternRandom, 1)
	rate := stepRate(l, 20000)
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("trigger rate = %v, want ~0.25 for scrambled random data", rate)
	}
}

func TestLinkZerosStillTriggerThanksToScrambler(t *testing.T) {
	// The pathological all-zeros payload still offers triggers because the
	// scrambler whitens the stream — the §II-E argument.
	l := newTestLink(PatternZeros, 2)
	rate := stepRate(l, 20000)
	if rate < 0.15 {
		t.Errorf("trigger rate on scrambled zeros = %v, want healthy fraction", rate)
	}
}

func TestLinkWalkingOnes(t *testing.T) {
	l := newTestLink(PatternWalkingOnes, 3)
	rate := stepRate(l, 20000)
	if rate <= 0 {
		t.Error("walking-ones traffic should still trigger")
	}
}

func TestLinkStepNeverUnderruns(t *testing.T) {
	l := newTestLink(PatternRandom, 4)
	for i := 0; i < 1000; i++ {
		l.Step()
	}
}

func TestTrafficPatternString(t *testing.T) {
	if PatternRandom.String() != "random" ||
		PatternZeros.String() != "zeros" ||
		PatternWalkingOnes.String() != "walking-ones" {
		t.Error("unexpected pattern names")
	}
	if TrafficPattern(9).String() == "" {
		t.Error("unknown pattern should still format")
	}
}

func TestTrafficGeneratorPatterns(t *testing.T) {
	s := rng.New(5)
	var buf [16]byte

	g := NewTrafficGenerator(PatternZeros, s)
	g.Next(buf[:])
	for _, b := range buf {
		if b != 0 {
			t.Fatal("zeros pattern emitted nonzero")
		}
	}

	g = NewTrafficGenerator(PatternWalkingOnes, s)
	g.Next(buf[:])
	if buf[0] != 1 || buf[1] != 2 || buf[7] != 128 || buf[8] != 1 {
		t.Errorf("walking ones = %v", buf[:9])
	}

	g = NewTrafficGenerator(PatternRandom, s)
	g.Next(buf[:])
	allSame := true
	for _, b := range buf[1:] {
		if b != buf[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("random pattern suspiciously uniform")
	}
}

func TestLink8b10bEncoding(t *testing.T) {
	stream := rng.New(8)
	line := txline.New("lane8b", txline.DefaultConfig(), stream.Child("line"))
	l := NewLinkEncoded(line, PatternZeros, Encoding8b10b, stream)
	if l.Encoding() != Encoding8b10b {
		t.Fatalf("Encoding = %v", l.Encoding())
	}
	rate := stepRate(l, 20000)
	// 8b/10b guarantees edges even on all-zero payloads.
	if rate < 0.15 {
		t.Errorf("8b/10b trigger rate on zeros = %v", rate)
	}
}

func TestEncodingString(t *testing.T) {
	if EncodingScrambler.String() != "scrambler" || Encoding8b10b.String() != "8b10b" ||
		Encoding(9).String() == "" {
		t.Error("encoding names")
	}
}

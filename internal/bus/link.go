package bus

import (
	"fmt"

	"divot/internal/rng"
	"divot/internal/txline"
)

// Encoding selects the channel code whitening the lane (§II-E: "most
// high-speed interfaces apply channel encoding to ensure that different
// symbols occur evenly").
type Encoding int

const (
	// EncodingScrambler whitens with the x⁷+x⁶+1 additive scrambler.
	EncodingScrambler Encoding = iota
	// Encoding8b10b uses 8b/10b symbols: exact DC balance, bounded run
	// length, guaranteed edge density — at a 25 % bandwidth cost.
	Encoding8b10b
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncodingScrambler:
		return "scrambler"
	case Encoding8b10b:
		return "8b10b"
	}
	return fmt.Sprintf("Encoding(%d)", int(e))
}

// Link is one protected serial lane: the physical transmission line plus the
// transmitter pipeline (traffic → channel code → FIFO) whose head feeds both
// the line and the iTDR trigger.
type Link struct {
	// Line is the physical trace the lane drives.
	Line *txline.Line
	// Fifo is the transmit FIFO; the iTDR trigger peeks at its head.
	Fifo *FIFO[uint8]

	encoding  Encoding
	scrambler *Scrambler
	encoder   *Encoder8b10b
	traffic   *TrafficGenerator
}

// NewLinkEncoded builds a lane over the given line carrying the given
// traffic under the given channel code.
func NewLinkEncoded(line *txline.Line, pattern TrafficPattern, enc Encoding, stream *rng.Stream) *Link {
	return &Link{
		Line:      line,
		Fifo:      NewFIFO[uint8](64),
		encoding:  enc,
		scrambler: NewScrambler(),
		encoder:   &Encoder8b10b{},
		traffic:   NewTrafficGenerator(pattern, stream.Child("traffic")),
	}
}

// Encoding returns the lane's channel code.
func (l *Link) Encoding() Encoding { return l.encoding }

// refill tops up the FIFO with freshly encoded traffic, only encoding a
// symbol when it fits whole — clipping a symbol would corrupt the stream.
func (l *Link) refill() {
	for {
		need := 8
		if l.encoding == Encoding8b10b {
			need = 10
		}
		if l.Fifo.Cap()-l.Fifo.Len() < need {
			return
		}
		var payload [1]byte
		l.traffic.Next(payload[:])
		var bits []uint8
		switch l.encoding {
		case Encoding8b10b:
			bits = SymbolBits(l.encoder.EncodeByte(payload[0]))
		default:
			bits = l.scrambler.ScrambleBits(BytesToBits(payload[:]))
		}
		for _, b := range bits {
			l.Fifo.Push(b)
		}
	}
}

// Step advances the lane by one bit time: it launches the next bit onto the
// line and reports whether this cycle offered the iTDR a usable 1→0 launch
// edge (the head bit is 1 and the following bit is 0 — §II-E's trigger
// condition).
func (l *Link) Step() (launched uint8, trigger bool) {
	if l.Fifo.Len() < 2 {
		l.refill()
	}
	head, ok := l.Fifo.Pop()
	if !ok {
		panic("bus: link FIFO underrun after refill")
	}
	next, ok := l.Fifo.Peek(0)
	return head, ok && head == 1 && next == 0
}

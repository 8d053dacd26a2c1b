package bus

// Scrambler is an additive (synchronous) LFSR scrambler using the x⁷+x⁶+1
// polynomial, the classic serial-link whitener. High-speed interfaces apply
// such channel coding so symbols occur evenly (§II-E) — which is exactly
// what makes the untriggered iTDR's rising and falling reflections cancel,
// and what guarantees the FIFO trigger a steady supply of 1→0 launches.
type Scrambler struct {
	state uint8 // 7-bit LFSR state
}

// NewScrambler returns a scrambler seeded to the conventional all-ones
// state. Transmitter and receiver construct identical scramblers and stay
// in sync by construction (additive scrambling).
func NewScrambler() *Scrambler { return &Scrambler{state: 0x7F} }

// NextBit returns the next keystream bit.
func (s *Scrambler) NextBit() uint8 {
	// Feedback taps at positions 7 and 6 (1-indexed).
	b7 := (s.state >> 6) & 1
	b6 := (s.state >> 5) & 1
	out := b7
	s.state = ((s.state << 1) | (b7 ^ b6)) & 0x7F
	return out
}

// ScrambleBit whitens one data bit.
func (s *Scrambler) ScrambleBit(b uint8) uint8 { return (b & 1) ^ s.NextBit() }

// ScrambleBits whitens a bit slice in place and returns it.
func (s *Scrambler) ScrambleBits(bits []uint8) []uint8 {
	for i, b := range bits {
		bits[i] = s.ScrambleBit(b)
	}
	return bits
}

// BytesToBits expands bytes into bits, MSB first.
func BytesToBits(data []byte) []uint8 {
	bits := make([]uint8, 0, len(data)*8)
	for _, b := range data {
		for i := 7; i >= 0; i-- {
			bits = append(bits, (b>>i)&1)
		}
	}
	return bits
}

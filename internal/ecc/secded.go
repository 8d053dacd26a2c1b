// Package ecc implements the single-error-correcting, double-error-detecting
// Hamming code used by (72,64) ECC DRAM. The paper's introduction frames
// DIVOT as the security analogue of ECC — redundant circuits working in
// parallel with normal accesses — and its related work (SYNERGY, Morphable
// Counters) repurposes exactly this machinery, so the memory substrate
// carries a real implementation.
package ecc

import "fmt"

// CheckBits is the redundancy for one 64-bit word: 7 Hamming parity bits
// plus one overall parity bit.
type CheckBits uint8

// Verdict classifies a decode.
type Verdict int

const (
	// Clean: no error.
	Clean Verdict = iota
	// Corrected: a single-bit error was repaired (in data or check bits).
	Corrected
	// Detected: a double-bit error was detected but cannot be repaired.
	Detected
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Clean:
		return "clean"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected-uncorrectable"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// codeBits is the (72,64) word length: positions 1..72, with parity bits at
// the seven powers of two and the overall parity stored separately.
const codeBits = 72

// isPow2 reports whether p is a power of two.
func isPow2(p int) bool { return p&(p-1) == 0 }

// dataPositions lists the code positions (1-based) holding data bits, in
// data-bit order (bit 0 of the word goes to the first non-power-of-2
// position).
var dataPositions = func() []int {
	pos := make([]int, 0, 64)
	for p := 1; p <= codeBits; p++ {
		if !isPow2(p) {
			pos = append(pos, p)
		}
	}
	if len(pos) != 65 {
		// Positions 1..72 contain 7 powers of two (1,2,4,8,16,32,64),
		// leaving 65 slots; we use the first 64 for data and leave the
		// last unused (the (72,64) shortened code).
		panic("ecc: internal position accounting error")
	}
	return pos[:64]
}()

// Encode computes the check bits for a 64-bit data word.
func Encode(data uint64) CheckBits {
	var hamming uint8
	var overall uint8
	for i, p := range dataPositions {
		bit := uint8(data>>i) & 1
		if bit == 0 {
			continue
		}
		overall ^= 1
		for k := 0; k < 7; k++ {
			if p&(1<<k) != 0 {
				hamming ^= 1 << k
			}
		}
	}
	// Parity bits contribute to the overall parity too.
	for k := 0; k < 7; k++ {
		overall ^= (hamming >> k) & 1
	}
	return CheckBits(hamming | overall<<7)
}

// Decode validates (and where possible repairs) a data word against its
// stored check bits. It returns the corrected data and the verdict.
func Decode(data uint64, stored CheckBits) (uint64, Verdict) {
	fresh := Encode(data)
	syndrome := uint8(fresh^stored) & 0x7F
	// The SECDED discriminator is the parity of the *received* word —
	// data bits plus stored check bits. Even parity means zero or two
	// errors; odd means one (or three). Recomputing the overall bit from
	// the data alone would fold the syndrome's weight into the decision
	// and misclassify half of all double errors.
	total := parity64(data) ^ parity8(uint8(stored))

	switch {
	case syndrome == 0 && total == 0:
		return data, Clean
	case syndrome == 0 && total == 1:
		// The overall parity bit itself flipped; data is intact.
		return data, Corrected
	case total == 1:
		// Single-bit error at position `syndrome`.
		pos := int(syndrome)
		if pos > codeBits {
			return data, Detected
		}
		if isPow2(pos) {
			// A Hamming check bit flipped; data is intact.
			return data, Corrected
		}
		for i, p := range dataPositions {
			if p == pos {
				return data ^ (1 << i), Corrected
			}
		}
		// The unused shortened slot: no valid single-bit explanation.
		return data, Detected
	default:
		// Nonzero syndrome with even total parity: double error.
		return data, Detected
	}
}

// parity64 returns the XOR of all bits of v.
func parity64(v uint64) uint8 {
	v ^= v >> 32
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return uint8(v) & 1
}

// parity8 returns the XOR of all bits of v.
func parity8(v uint8) uint8 {
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v & 1
}

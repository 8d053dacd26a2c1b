package bus

import "fmt"

// 8b/10b line coding (Widmer–Franaszek), the channel code used by the
// high-speed serial standards the paper's §II-E references: it bounds run
// length at 5, balances DC exactly via running disparity, and guarantees the
// iTDR's FIFO trigger a dense supply of 1→0 launch edges on any payload.
//
// The implementation is the standard 5b/6b + 3b/4b decomposition with
// running-disparity selection, built from the published sub-block tables.

// Encoder8b10b encodes bytes into 10-bit symbols, tracking running
// disparity. The zero value starts at negative disparity, the conventional
// link-reset state.
type Encoder8b10b struct {
	rdPositive bool
}

// Decoder8b10b decodes 10-bit symbols back into bytes, validating disparity.
type Decoder8b10b struct {
	rdPositive bool
}

// fiveSix maps EDCBA (5 LSBs) to the abcdei sub-block for RD- (negative
// running disparity). Entries are written bit 'a' first (transmission
// order); disparity-neutral entries are used for both polarities, others are
// complemented for RD+.
var fiveSix = [32]uint16{
	0b100111, 0b011101, 0b101101, 0b110001, 0b110101, 0b101001, 0b011001, 0b111000,
	0b111001, 0b100101, 0b010101, 0b110100, 0b001101, 0b101100, 0b011100, 0b010111,
	0b011011, 0b100011, 0b010011, 0b110010, 0b001011, 0b101010, 0b011010, 0b111010,
	0b110011, 0b100110, 0b010110, 0b110110, 0b001110, 0b101110, 0b011110, 0b101011,
}

// threeFour maps HGF (3 MSBs) to the fghj sub-block for RD-. Index 7 has the
// primary (D.x.7) encoding; the alternate (D.x.A7) is handled specially.
var threeFour = [8]uint8{
	0b1011, 0b1001, 0b0101, 0b1100, 0b1101, 0b1010, 0b0110, 0b1110,
}

// popcount4/6 return the number of set bits in the sub-block.
func popcount(v uint16) int {
	n := 0
	for ; v != 0; v >>= 1 {
		n += int(v & 1)
	}
	return n
}

// useAlternate7 reports whether D.x.A7 must replace D.x.7 to avoid five
// consecutive identical bits across the sub-block boundary: required for
// x ∈ {17,18,20} at RD- and x ∈ {11,13,14} at RD+.
func useAlternate7(x int, rdPositive bool) bool {
	if rdPositive {
		return x == 11 || x == 13 || x == 14
	}
	return x == 17 || x == 18 || x == 20
}

// EncodeByte returns the 10-bit symbol (bit 'a' in the MSB of the 10-bit
// value, matching transmission order) for the data byte b.
func (e *Encoder8b10b) EncodeByte(b byte) uint16 {
	x := int(b & 0x1F)
	y := int(b >> 5)

	six := fiveSix[x]
	sixOnes := popcount(six)
	// Unbalanced sub-blocks are complemented at RD+; D.7's balanced block
	// also alternates (111000 at RD-, 000111 at RD+) to bound run length.
	if (sixOnes != 3 || x == 7) && e.rdPositive {
		six = ^six & 0x3F
	}
	rd := e.rdPositive
	if sixOnes != 3 {
		rd = !rd
	}

	four := uint16(threeFour[y])
	if y == 7 && useAlternate7(x, rd) {
		four = 0b0111 // D.x.A7 at RD-
	}
	fourOnes := popcount(four)
	// y=3's balanced block alternates like D.7 (1100 at RD-, 0011 at RD+).
	if (fourOnes != 2 || y == 3) && rd {
		four = ^four & 0xF
	}
	if fourOnes != 2 {
		rd = !rd
	}
	e.rdPositive = rd
	return six<<4 | four
}

// Encode encodes a byte slice into symbols.
func (e *Encoder8b10b) Encode(data []byte) []uint16 {
	out := make([]uint16, len(data))
	for i, b := range data {
		out[i] = e.EncodeByte(b)
	}
	return out
}

// decode56 inverts fiveSix (both polarities, including D.7's alternation).
var decode56 = func() map[uint16]byte {
	m := make(map[uint16]byte, 64)
	for x, six := range fiveSix {
		m[six] = byte(x)
		if popcount(six) != 3 || x == 7 {
			m[^six&0x3F] = byte(x)
		}
	}
	return m
}()

// decode34 inverts threeFour (both polarities, the y=3 alternation, and the
// A7 alternates).
var decode34 = func() map[uint16]byte {
	m := make(map[uint16]byte, 16)
	for y, four := range threeFour {
		m[uint16(four)] = byte(y)
		if popcount(uint16(four)) != 2 || y == 3 {
			m[uint16(^four)&0xF] = byte(y)
		}
	}
	m[0b0111] = 7 // D.x.A7 RD-
	m[0b1000] = 7 // D.x.A7 RD+
	return m
}()

// DecodeSymbol decodes one 10-bit symbol. It returns an error for symbols
// outside the data alphabet or whose sub-blocks violate the running
// disparity (checked per sub-block, as real deserializers do).
func (d *Decoder8b10b) DecodeSymbol(sym uint16) (byte, error) {
	six := sym >> 4
	four := sym & 0xF
	x, ok := decode56[six]
	if !ok {
		return 0, fmt.Errorf("bus: invalid 6b sub-block %06b", six)
	}
	y, ok := decode34[four]
	if !ok {
		return 0, fmt.Errorf("bus: invalid 4b sub-block %04b", four)
	}
	step := func(ones, balance int, block uint16, width int) error {
		switch {
		case ones > balance:
			if d.rdPositive {
				return fmt.Errorf("bus: disparity violation on %0*b (RD+)", width, block)
			}
			d.rdPositive = true
		case ones < balance:
			if !d.rdPositive {
				return fmt.Errorf("bus: disparity violation on %0*b (RD-)", width, block)
			}
			d.rdPositive = false
		}
		return nil
	}
	if err := step(popcount(six), 3, six, 6); err != nil {
		return 0, err
	}
	if err := step(popcount(four), 2, four, 4); err != nil {
		return 0, err
	}
	return y<<5 | x, nil
}

// Decode decodes a symbol stream.
func (d *Decoder8b10b) Decode(syms []uint16) ([]byte, error) {
	out := make([]byte, len(syms))
	for i, s := range syms {
		b, err := d.DecodeSymbol(s)
		if err != nil {
			return nil, fmt.Errorf("bus: symbol %d: %w", i, err)
		}
		out[i] = b
	}
	return out, nil
}

// K28.5 is the comma control symbol used for frame alignment: its 6b
// sub-block contains the singular comma bit pattern a deserializer can lock
// onto. Like any unbalanced symbol it has two forms selected by running
// disparity.
const (
	k285Neg uint16 = 0b0011111010 // RD- form
	k285Pos uint16 = 0b1100000101 // RD+ form
)

// EncodeComma emits a K28.5 comma for the current running disparity. The
// comma's 6b block is unbalanced, so it flips the disparity like any data
// symbol would.
func (e *Encoder8b10b) EncodeComma() uint16 {
	sym := k285Neg
	if e.rdPositive {
		sym = k285Pos
	}
	e.rdPositive = !e.rdPositive
	return sym
}

// IsComma reports whether the symbol is either form of K28.5.
func IsComma(sym uint16) bool {
	return sym == k285Neg || sym == k285Pos
}

// ConsumeComma validates a K28.5 against the running disparity and advances
// it. It returns an error for a disparity-violating comma.
func (d *Decoder8b10b) ConsumeComma(sym uint16) error {
	switch sym {
	case k285Neg:
		if d.rdPositive {
			return fmt.Errorf("bus: K28.5 RD- form at RD+")
		}
		d.rdPositive = true
	case k285Pos:
		if !d.rdPositive {
			return fmt.Errorf("bus: K28.5 RD+ form at RD-")
		}
		d.rdPositive = false
	default:
		return fmt.Errorf("bus: %010b is not K28.5", sym)
	}
	return nil
}

// SymbolBits expands a symbol into its 10 transmitted bits, 'a' first.
func SymbolBits(sym uint16) []uint8 {
	bits := make([]uint8, 10)
	for i := 0; i < 10; i++ {
		bits[i] = uint8(sym>>(9-i)) & 1
	}
	return bits
}

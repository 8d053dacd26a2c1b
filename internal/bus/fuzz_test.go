package bus

import (
	"bytes"
	"testing"
)

// FuzzDecoder8b10b feeds arbitrary symbol streams to the decoder: it must
// either decode or reject, never panic, and valid encodings must round-trip.
func FuzzDecoder8b10b(f *testing.F) {
	f.Add([]byte{0x00, 0xFF, 0x55, 0xAA})
	f.Add([]byte("hello world"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Path 1: decode raw (possibly invalid) symbols built from data.
		var dec Decoder8b10b
		syms := make([]uint16, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			syms = append(syms, uint16(data[i])<<8|uint16(data[i+1])&0x3FF)
		}
		_, _ = dec.Decode(syms) // must not panic

		// Path 2: encode-decode round trip must be exact.
		var enc Encoder8b10b
		var dec2 Decoder8b10b
		back, err := dec2.Decode(enc.Encode(data))
		if err != nil {
			t.Fatalf("valid encoding rejected: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("round trip mismatch")
		}
	})
}

// FuzzScrambler checks the scrambler round trip on arbitrary payloads.
func FuzzScrambler(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0x00, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, rx := NewScrambler(), NewScrambler()
		bits := BytesToBits(data)
		scrambled := tx.ScrambleBits(append([]uint8(nil), bits...))
		back := rx.ScrambleBits(scrambled)
		for i := range bits {
			if bits[i] != back[i] {
				t.Fatal("scrambler round trip mismatch")
			}
		}
	})
}

package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCleanRoundTrip(t *testing.T) {
	f := func(data uint64) bool {
		got, v := Decode(data, Encode(data))
		return got == data && v == Clean
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSingleDataBitCorrected(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		data := r.Uint64()
		check := Encode(data)
		bit := r.Intn(64)
		corrupted := data ^ (1 << bit)
		got, v := Decode(corrupted, check)
		if v != Corrected {
			t.Fatalf("data %x bit %d: verdict %v", data, bit, v)
		}
		if got != data {
			t.Fatalf("data %x bit %d: corrected to %x", data, bit, got)
		}
	}
}

func TestEverySingleDataBitCorrected(t *testing.T) {
	data := uint64(0xDEADBEEFCAFEF00D)
	check := Encode(data)
	for bit := 0; bit < 64; bit++ {
		got, v := Decode(data^(1<<bit), check)
		if v != Corrected || got != data {
			t.Fatalf("bit %d: verdict %v, data %x", bit, v, got)
		}
	}
}

func TestSingleCheckBitCorrected(t *testing.T) {
	data := uint64(0x0123456789ABCDEF)
	for bit := 0; bit < 8; bit++ {
		got, v := Decode(data, Encode(data)^(1<<bit))
		if v != Corrected || got != data {
			t.Fatalf("check bit %d: verdict %v, data %x", bit, v, got)
		}
	}
}

func TestDoubleBitDetected(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		data := r.Uint64()
		check := Encode(data)
		b1 := r.Intn(64)
		b2 := r.Intn(64)
		for b2 == b1 {
			b2 = r.Intn(64)
		}
		corrupted := data ^ (1 << b1) ^ (1 << b2)
		_, v := Decode(corrupted, check)
		if v != Detected {
			t.Fatalf("data %x bits %d,%d: verdict %v (double error missed)", data, b1, b2, v)
		}
	}
}

func TestDataPlusCheckBitDetectedOrCorrected(t *testing.T) {
	// One data bit + one check bit flipped: SECDED guarantees detection
	// (it may not correct). Verify the decoder never silently returns
	// wrong data as Clean.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		data := r.Uint64()
		got, v := Decode(data^(1<<r.Intn(64)), Encode(data)^(1<<r.Intn(8)))
		if v == Clean {
			t.Fatalf("double error (data+check) decoded as clean")
		}
		if v == Corrected && got != data {
			t.Fatalf("miscorrection: %x → %x", data, got)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if Clean.String() != "clean" || Corrected.String() != "corrected" ||
		Detected.String() != "detected-uncorrectable" || Verdict(9).String() == "" {
		t.Error("verdict names")
	}
}

func TestCheckBitsDifferAcrossData(t *testing.T) {
	// Sanity: the code actually depends on the data.
	if Encode(0) == Encode(1) {
		t.Error("check bits identical for different data")
	}
	if Encode(0) != Encode(0) {
		t.Error("encoding not deterministic")
	}
}

package fingerprint

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestIIPEncodeDecodeRoundTrip(t *testing.T) {
	p := DefaultPipeline()
	orig := p.FromWaveform(waveOf(1e-3, 2e-3, -1e-3, 0.5e-3, 0, -2e-3, 1e-3, 3e-3))
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeIIP(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != orig.Len() {
		t.Fatalf("length %d, want %d", back.Len(), orig.Len())
	}
	// Raw samples preserved exactly; similarity with the original is 1.
	for i := range orig.Raw.Samples {
		if back.Raw.Samples[i] != orig.Raw.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
	if s := Similarity(orig, back); math.Abs(s-1) > 1e-12 {
		t.Errorf("similarity after round trip = %v", s)
	}
}

func TestEncodeInvalidFails(t *testing.T) {
	var buf bytes.Buffer
	if err := (IIP{}).Encode(&buf); err == nil {
		t.Error("expected error encoding invalid fingerprint")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeIIP(strings.NewReader("not json"), Pipeline{}); err == nil {
		t.Error("expected decode error")
	}
	if _, err := DecodeIIP(strings.NewReader(`{"version":99,"rate":1,"samples":[1]}`), Pipeline{}); err == nil {
		t.Error("expected version error")
	}
	if _, err := DecodeIIP(strings.NewReader(`{"version":1,"rate":0,"samples":[1]}`), Pipeline{}); err == nil {
		t.Error("expected corrupt-rate error")
	}
	if _, err := DecodeIIP(strings.NewReader(`{"version":1,"rate":1,"samples":[]}`), Pipeline{}); err == nil {
		t.Error("expected empty-samples error")
	}
}

func TestDecodePipelineModeRebuildsComparisonView(t *testing.T) {
	// A fingerprint stored under one comparison mode must be loadable under
	// another: the comparison view derives from Raw at decode time.
	src := Pipeline{SmoothSigmaBins: 0, Mode: CompareMeanRemoved}
	orig := src.FromWaveform(waveOf(0, 1e-3, 2e-3, 1e-3, 0, -1e-3, -2e-3, -1e-3))
	var buf bytes.Buffer
	if err := orig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dst := Pipeline{SmoothSigmaBins: 0, Mode: CompareDerivative}
	back, err := DecodeIIP(&buf, dst)
	if err != nil {
		t.Fatal(err)
	}
	native := dst.FromWaveform(orig.Raw)
	if s := Similarity(back, native); math.Abs(s-1) > 1e-12 {
		t.Errorf("mode rebuild similarity = %v", s)
	}
}

// FuzzDecodeIIP feeds arbitrary bytes to the EPROM-image decoder: it must
// never panic and must reject anything that does not round-trip.
func FuzzDecodeIIP(f *testing.F) {
	var buf bytes.Buffer
	_ = DefaultPipeline().FromWaveform(waveOf(1, 2, 3)).Encode(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("{}"))
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fp, err := DecodeIIP(bytes.NewReader(data), DefaultPipeline())
		if err != nil {
			return
		}
		if !fp.Valid() {
			t.Fatal("decoder accepted an invalid fingerprint")
		}
	})
}

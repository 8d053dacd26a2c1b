package netlink

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"divot/internal/memctl"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(dst, src uint16, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		orig := Frame{Dst: dst, Src: src, Payload: payload}
		raw, err := orig.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(raw)
		if err != nil {
			return false
		}
		return back.Dst == dst && back.Src == src && bytes.Equal(back.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameRejectsOversizedPayload(t *testing.T) {
	f := Frame{Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Marshal(); err == nil {
		t.Error("expected payload-size error")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	raw, err := (Frame{Dst: 1, Src: 2, Payload: []byte("hello")}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range map[string]func([]byte) []byte{
		"short":       func(b []byte) []byte { return b[:4] },
		"bit flip":    func(b []byte) []byte { b[7] ^= 0x10; return b },
		"crc flip":    func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		"bad length":  func(b []byte) []byte { b[5] = 0xFF; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-1] },
		"extra bytes": func(b []byte) []byte { return append(b, 0) },
	} {
		mangled := mangle(append([]byte(nil), raw...))
		if _, err := Unmarshal(mangled); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPortEndToEnd(t *testing.T) {
	tx := NewPort(0x0001, nil)
	var rx Deframer
	payload := []byte("the quick brown fox")
	symbols, err := tx.TransmitFramed(0x0002, payload)
	if err != nil {
		t.Fatal(err)
	}
	frames := rx.Push(symbols)
	if len(frames) != 1 {
		t.Fatalf("deframed %d frames (errors %d), want 1", len(frames), rx.Errors)
	}
	if f := frames[0]; f.Dst != 0x0002 || f.Src != 0x0001 || !bytes.Equal(f.Payload, payload) {
		t.Errorf("frame = %+v", f)
	}
	if tx.Stats.FramesSent != 1 || rx.Frames != 1 {
		t.Errorf("stats: %+v, deframed %d", tx.Stats, rx.Frames)
	}
}

func TestPortMultipleFramesShareDisparityState(t *testing.T) {
	// The 8b/10b running disparity carries across frames on a real wire;
	// a stream of frames must keep decoding.
	tx := NewPort(1, nil)
	var rx Deframer
	for i := 0; i < 20; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, i*7%64)
		symbols, err := tx.TransmitFramed(2, payload)
		if err != nil {
			t.Fatal(err)
		}
		frames := rx.Push(symbols)
		if len(frames) != 1 {
			t.Fatalf("frame %d: deframed %d frames (errors %d)", i, len(frames), rx.Errors)
		}
		if !bytes.Equal(frames[0].Payload, payload) {
			t.Fatalf("frame %d payload differs", i)
		}
	}
}

func TestGateDownBlocksTransmit(t *testing.T) {
	gate := memctl.NewStaticGate(false)
	tx := NewPort(1, gate)
	if _, err := tx.TransmitFramed(2, []byte("x")); !errors.Is(err, ErrLinkDown) {
		t.Errorf("tx error = %v", err)
	}
	if tx.Stats.FramesDropped != 1 || tx.Stats.FramesSent != 0 {
		t.Errorf("counters: %+v", tx.Stats)
	}
	// Gate recovery restores traffic.
	gate.Set(true)
	if _, err := tx.TransmitFramed(2, []byte("x")); err != nil {
		t.Fatalf("transmit after recovery: %v", err)
	}
}

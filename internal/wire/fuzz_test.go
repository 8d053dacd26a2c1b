package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"divot/internal/attest"
)

// FuzzDecodeFrame is the CI fuzz target for the binary stream decoder (the
// fuzz-short job runs it on every push). Invariants on arbitrary bytes:
//
//   - DecodeFrame and DecodeEvent never panic — torn frames, hostile length
//     prefixes, and bad versions are errors, not crashes.
//   - An oversized length prefix is rejected before allocation.
//   - Anything that decodes as an event re-encodes to a frame that decodes
//     back to the identical event (a successful decode names a canonical
//     value, not a lucky parse).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, FrameHeartbeat, nil))
	f.Add(AppendFrame(nil, FrameHello, []byte(`{"links":["dimm0"]}`)))
	for _, ev := range sampleEvents() {
		f.Add(AppendEventFrame(nil, ev))
	}
	f.Add(AppendEventFrame(nil, attest.Event{Seq: 4, Kind: "health", Link: "a", Score: math.NaN()}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, Version, byte(FrameEvent)}) // hostile length
	f.Add([]byte{0, 0, 0, 2, Version + 7, byte(FrameEvent)})         // future version

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n < headerLen+2 || n > len(data) {
			t.Fatalf("DecodeFrame consumed %d of %d bytes", n, len(data))
		}
		if typ != FrameEvent {
			return
		}
		ev, err := DecodeEvent(payload)
		if err != nil {
			return
		}
		again := AppendEventFrame(nil, ev)
		typ2, payload2, _, err := DecodeFrame(again)
		if err != nil || typ2 != FrameEvent {
			t.Fatalf("re-encoded event frame failed to decode: %v", err)
		}
		ev2, err := DecodeEvent(payload2)
		if err != nil {
			t.Fatalf("re-encoded event failed to decode: %v", err)
		}
		// The score travels as raw IEEE bits, so a NaN score comes back bit
		// for bit; NaN != NaN would defeat DeepEqual, so compare it by bits.
		if math.IsNaN(ev.Score) && math.Float64bits(ev.Score) == math.Float64bits(ev2.Score) {
			ev.Score, ev2.Score = 0, 0
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("event not canonical: %+v re-encoded to %+v", ev, ev2)
		}
		// The reader must agree with the slice decoder.
		rtyp, rpayload, rerr := NewReader(bytes.NewReader(data[:n])).Next()
		if rerr != nil || rtyp != typ || !bytes.Equal(rpayload, payload) {
			t.Fatalf("Reader disagrees with DecodeFrame: %v %v", rtyp, rerr)
		}
	})
}

package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/url"
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

// FuzzParseSubscribeRequest is the CI fuzz target for the GET /v1/stream
// handshake, fed an arbitrary query string and body. ParseSubscribeRequest
// must never panic, and must return either an error or a Subscribe whose JSON
// re-parses to the same value: what the server acts on is exactly what a
// client could have sent as a JSON body.
func FuzzParseSubscribeRequest(f *testing.F) {
	f.Add("links=a,b&kinds=alert&after=a:3,b:0", []byte(nil))
	f.Add("links=a&links=b,,c&after=x:y:9", []byte(nil))
	f.Add("after=:3", []byte(nil))
	f.Add("links=%ff%fe", []byte(nil))
	f.Add("", []byte(`{"links":["dimm0"],"kinds":["alert","gate"],"after":{"dimm0":41}}`))
	f.Add("links=ignored", []byte(`{"links":[],"after":{}}`))
	f.Add("", []byte(`{"links":["a"]} trailing`))
	f.Add("", []byte(`null`))

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		r := &http.Request{
			Method: http.MethodGet,
			URL:    &url.URL{Path: "/v1/stream", RawQuery: query},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		sub, err := ParseSubscribeRequest(r)
		if err != nil {
			return
		}
		raw, err := json.Marshal(sub)
		if err != nil {
			t.Fatalf("accepted handshake does not encode: %+v: %v", sub, err)
		}
		var again Subscribe
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("accepted handshake's JSON %s does not re-parse: %v", raw, err)
		}
		if !reflect.DeepEqual(sub, again) {
			t.Fatalf("handshake %#v re-parses from %s as %#v", sub, raw, again)
		}
	})
}

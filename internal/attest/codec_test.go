package attest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// referenceWriteData, referenceWriteEnvelope and referenceParseBody are the
// reflective encode and the two-pass parse that WriteData and ParseBody ran
// before the codec, kept verbatim as its oracle: for every value the codec
// must write the same bytes, and for every body return the same value and
// error.
func referenceWriteData(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		referenceWriteEnvelope(w, StatusFor(CodeInternal), Envelope{
			V:     Version,
			Error: &Error{Code: CodeInternal, Message: fmt.Sprintf("encoding response: %v", err)},
		})
		return
	}
	referenceWriteEnvelope(w, status, Envelope{V: Version, Data: raw})
}

func referenceWriteEnvelope(w http.ResponseWriter, status int, env Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(env) //nolint:errcheck // client gone mid-response
}

func referenceParseBody(body []byte, out any) error {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("attest: response is not an envelope: %w", err)
	}
	if env.V > Version {
		return fmt.Errorf("attest: server speaks protocol v%d, this client v%d", env.V, Version)
	}
	if env.Error != nil {
		return env.Error
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(env.Data, out); err != nil {
		return fmt.Errorf("attest: decoding response data: %w", err)
	}
	return nil
}

// assertSameWrite renders v through WriteData and the oracle and requires
// identical status, Content-Type and body bytes. It returns the body.
func assertSameWrite(t testing.TB, name string, v any) []byte {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	WriteData(got, http.StatusOK, v)
	referenceWriteData(want, http.StatusOK, v)
	if got.Code != want.Code {
		t.Errorf("%s: status %d, oracle %d", name, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("%s: Content-Type %q, oracle %q", name, g, w)
	}
	if cl := got.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(got.Body.Len()) {
		t.Errorf("%s: Content-Length %s for a %d-byte body", name, cl, got.Body.Len())
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: body differs from the oracle\n--- codec:\n%s\n--- oracle:\n%s",
			name, got.Body.Bytes(), want.Body.Bytes())
	}
	return got.Body.Bytes()
}

// destinations are the ParseBody targets the oracle comparison covers: each
// codec type fresh and pre-populated (encoding/json merges into existing
// values, so the codec must step aside), typed nil pointers, a non-codec
// type and a nil out.
var destinations = []struct {
	name string
	mk   func() any
}{
	{"nil", func() any { return nil }},
	{"report", func() any { return new(AuthReport) }},
	{"attest", func() any { return new(AttestResponse) }},
	{"federated", func() any { return new(FederatedAttestResponse) }},
	{"report-populated", func() any {
		return &AuthReport{ID: "stale", Cached: true, Daemon: "d9", Score: 0.5}
	}},
	{"attest-populated", func() any {
		return &AttestResponse{Results: []AuthReport{{ID: "x", Cached: true}, {ID: "y"}}}
	}},
	{"attest-empty-results", func() any { return &AttestResponse{Results: []AuthReport{}} }},
	{"federated-populated", func() any {
		return &FederatedAttestResponse{Complete: true,
			Results: []AuthReport{{ID: "x", Daemon: "d1", Cached: true}},
			Errors:  []ShardError{{Code: CodeInternal, Links: []string{"q"}}}}
	}},
	{"report-nil-ptr", func() any { return (*AuthReport)(nil) }},
	{"attest-nil-ptr", func() any { return (*AttestResponse)(nil) }},
	{"federated-nil-ptr", func() any { return (*FederatedAttestResponse)(nil) }},
	{"health", func() any { return new(HealthView) }},
	{"generic", func() any { return new(map[string]any) }},
}

// assertSameParse decodes body into every destination through ParseBody and
// the oracle and requires the same error text and a deeply equal value.
func assertSameParse(t testing.TB, name string, body []byte) {
	t.Helper()
	for _, dst := range destinations {
		got, want := dst.mk(), dst.mk()
		gerr := ParseBody(body, got)
		werr := referenceParseBody(body, want)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s into %s: error %v, oracle %v\nbody: %q", name, dst.name, gerr, werr, body)
		}
		if reflect.TypeOf(gerr) != reflect.TypeOf(werr) {
			t.Fatalf("%s into %s: error type %T, oracle %T", name, dst.name, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s into %s: value %+v, oracle %+v\nbody: %q", name, dst.name, got, want, body)
		}
	}
}

// TestCodecMatchesOracleOnGoldenExamples runs every docs/API.md example
// through both writers, then every resulting body through both parsers.
func TestCodecMatchesOracleOnGoldenExamples(t *testing.T) {
	for name, v := range goldenExamples() {
		body := assertSameWrite(t, name, v)
		assertSameParse(t, name, body)
	}
}

// TestCodecTakesTheFastPath guards against a codec that silently defers
// everything to encoding/json: escape-free verdict-bearing bodies must
// decode in one pass, into the value they were written from.
func TestCodecTakesTheFastPath(t *testing.T) {
	examples := goldenExamples()
	partial := sweep(4)
	partial.Complete, partial.AllAccepted = false, false
	partial.Errors = []ShardError{{Code: CodeUnavailable, Message: "connection refused", Links: []string{"bus-004"}}}
	for name, v := range map[string]any{
		"authenticate": examples["authenticate"],
		"attest":       examples["attest"],
		"sweep":        sweep(256),
		"partial":      partial,
	} {
		rec := httptest.NewRecorder()
		WriteData(rec, http.StatusOK, v)
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", name, cl, rec.Body.Len())
		}
		out := reflect.New(reflect.TypeOf(v))
		if !parseCodec(rec.Body.Bytes(), out.Interface()) {
			t.Errorf("%s: canonical body fell back to encoding/json", name)
			continue
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, v) {
			t.Errorf("%s: decoded %+v, wrote %+v", name, got, v)
		}
	}
}

// codecStrings covers every escaping rule of encoding/json's string encoder:
// HTML-special characters, quotes and backslashes, control characters, DEL,
// multi-byte UTF-8, U+2028/U+2029, U+FFFD and invalid UTF-8.
var codecStrings = []string{
	"", "dimm0", "bus-007", "d0", "ok", "suspect", "http://10.0.0.1:9720",
	"a<b>&c", `quote"back\slash`, "tab\tnl\ncr\r", "\x00\x01\x1f", "del\x7f",
	"héllo wörld", "日本語", "line\u2028para\u2029", "\ufffd", "bad\xff\xfe",
	"trunc\xe2\x80", "\xed\xa0\x80", "emoji 🛰", "slash/ok", "'single'",
}

// codecFloats covers encoding/json's format switch at 1e-6 and 1e21, both
// zeros, subnormals and the extremes.
var codecFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.9996, 0.41, 0.0023,
	1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-7, 1e-10, 1e-100,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 123456789012345678901,
	5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64,
	1.0000000000000002, 0.1 + 0.2, 100, 1e20,
}

type codecGen struct{ r *rand.Rand }

func (g codecGen) str() string {
	if g.r.Intn(6) == 0 {
		b := make([]byte, g.r.Intn(12))
		g.r.Read(b)
		return string(b)
	}
	return codecStrings[g.r.Intn(len(codecStrings))]
}

func (g codecGen) float() float64 {
	switch g.r.Intn(3) {
	case 0:
		return codecFloats[g.r.Intn(len(codecFloats))]
	case 1:
		return g.r.Float64()
	}
	return g.r.NormFloat64() * math.Pow(10, float64(g.r.Intn(60)-30))
}

func (g codecGen) int() int {
	switch g.r.Intn(4) {
	case 0:
		return []int{0, -1, math.MaxInt, math.MinInt}[g.r.Intn(4)]
	case 1:
		return -g.r.Intn(1000)
	}
	return g.r.Intn(100000)
}

// sliceLen picks -1 (nil), 0 (empty, non-nil) or a length up to max.
func (g codecGen) sliceLen(max int) int { return g.r.Intn(max+2) - 1 }

func (g codecGen) report() AuthReport {
	return AuthReport{
		ID: g.str(), Accepted: g.r.Intn(2) == 0, Score: g.float(),
		Tampered: g.r.Intn(2) == 0, TamperPosition: g.float(), Health: g.str(),
		Cached: g.r.Intn(2) == 0, Daemon: g.str(),
	}
}

func (g codecGen) reports() []AuthReport {
	n := g.sliceLen(6)
	if n < 0 {
		return nil
	}
	out := make([]AuthReport, n)
	for i := range out {
		out[i] = g.report()
	}
	return out
}

func (g codecGen) federated() FederatedAttestResponse {
	r := FederatedAttestResponse{
		Results: g.reports(), AllAccepted: g.r.Intn(2) == 0, Complete: g.r.Intn(2) == 0,
	}
	if n := g.sliceLen(3); n >= 0 {
		r.Shards = make([]ShardStatus, n)
		for i := range r.Shards {
			r.Shards[i] = ShardStatus{Daemon: g.str(), Addr: g.str(), Up: g.r.Intn(2) == 0, Buses: g.int()}
		}
	}
	if n := g.sliceLen(3); n >= 0 {
		r.Errors = make([]ShardError, n)
		for i := range r.Errors {
			e := ShardError{Daemon: g.str(), Code: g.str(), Message: g.str()}
			if m := g.sliceLen(4); m >= 0 {
				e.Links = make([]string, m)
				for j := range e.Links {
					e.Links[j] = g.str()
				}
			}
			r.Errors[i] = e
		}
	}
	return r
}

// TestCodecMatchesOracleRandomized compares both writers and both parsers
// over random verdict-bearing responses.
func TestCodecMatchesOracleRandomized(t *testing.T) {
	g := codecGen{rand.New(rand.NewSource(15))}
	for i := 0; i < 3000; i++ {
		var v any
		switch i % 3 {
		case 0:
			v = g.report()
		case 1:
			v = AttestResponse{Results: g.reports(), AllAccepted: g.r.Intn(2) == 0}
		default:
			v = g.federated()
		}
		name := fmt.Sprintf("value %d (%T)", i, v)
		body := assertSameWrite(t, name, v)
		assertSameParse(t, name, body)
	}
}

// TestCodecNonFiniteFallsBack: JSON has no NaN or infinity, so such a
// verdict must come out as the reflective path's 500 envelope, byte for
// byte.
func TestCodecNonFiniteFallsBack(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		vals := []any{
			AuthReport{ID: "dimm0", Score: f},
			AttestResponse{Results: []AuthReport{{ID: "dimm0"}, {ID: "dimm1", TamperPosition: f}}},
			FederatedAttestResponse{Results: []AuthReport{{ID: "dimm0", Score: f}}, Complete: true},
		}
		for _, v := range vals {
			rec := httptest.NewRecorder()
			WriteData(rec, http.StatusOK, v)
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("%T with %v: status %d, want 500", v, f, rec.Code)
			}
			assertSameWrite(t, fmt.Sprintf("%T with %v", v, f), v)
		}
	}
}

// parseCases are hand-written bodies around the edges of the canonical
// subset; each must come back from ParseBody exactly as from the oracle.
var parseCases = []string{
	`{"v":1,"data":{"id":"dimm0","accepted":true,"score":0.5,"tampered":false,"tamper_position":0,"health":"ok"}}`,
	`{"data":{"results":[],"all_accepted":true},"v":1}`,
	` {"v" : 1 , "data" : { "results" : [ { "id" : "a" } ] , "complete" : true } } ` + "\n\t\r",
	`{"v":0,"data":{}}`,
	`{"v":-3,"data":{"results":[{}]}}`,
	`{"data":{}}`,
	`{"v":1}`,
	`{"v":2,"data":{}}`,
	`{"v":99,"error":{"code":"internal","message":"x"}}`,
	`{"v":1,"error":{"code":"unknown_link","message":"no bus"}}`,
	`{"v":1,"data":{},"error":null}`,
	`{"v":1,"data":null}`,
	`{"v":1,"data":{"results":null}}`,
	`{"v":1,"data":{"id":null}}`,
	`{"v":1,"data":{},"data":{}}`,
	`{"v":1,"v":1,"data":{}}`,
	`{"v":1,"data":{"id":"a","id":"b"}}`,
	`{"v":1,"data":{"results":[{"id":"a","cached":true}],"results":[{"id":"b"}]}}`,
	`{"V":1,"data":{}}`,
	`{"v":1,"Data":{}}`,
	`{"v":1,"data":{"ID":"a"}}`,
	`{"v":1,"data":{"unknown":1}}`,
	`{"v":1,"data":{"id":"esc\u0061pe"}}`,
	`{"v":1,"data":{"id":"tab\tinside"}}`,
	`{"v":1,"data":{"id":"bad` + "\xff" + `"}}`,
	`{"v":1,"data":{"id":"héllo"}}`,
	`{"v":1,"data":{}} trailing`,
	`{"v":1,"data":{}}{"v":1,"data":{}}`,
	`{"v":1,"data":{}`,
	`{"v":1,"data":{},}`,
	`{"v":1,,"data":{}}`,
	`{"v":1.0,"data":{}}`,
	`{"v":1e0,"data":{}}`,
	`{"v":+1,"data":{}}`,
	`{"v":01,"data":{}}`,
	`{"v":-0,"data":{}}`,
	`{"v":99999999999999999999,"data":{}}`,
	`{"v":1,"data":{"score":1e400}}`,
	`{"v":1,"data":{"score":-0}}`,
	`{"v":1,"data":{"score":1E-7}}`,
	`{"v":1,"data":{"score":.5}}`,
	`{"v":1,"data":{"score":5.}}`,
	`{"v":1,"data":{"score":0x10}}`,
	`{"v":1,"data":{"score":Infinity}}`,
	`{"v":1,"data":{"score":"1"}}`,
	`{"v":1,"data":{"accepted":tru}}`,
	`{"v":1,"data":{"accepted":truex}}`,
	`{"v":1,"data":{"accepted":1}}`,
	`{"v":1,"data":{"shards":[{"buses":1.5}]}}`,
	`{"v":1,"data":{"shards":[{"buses":9223372036854775808}]}}`,
	`{"v":1,"data":{"shards":[],"errors":[{"links":[]}]}}`,
	`{"v":1,"data":{"errors":[{"links":["a",]}]}}`,
	`{"v":1,"data":{"errors":[{"links":["a" "b"]}]}}`,
	`{"v":1,"data":{"results":[{"id":"a"},]}}`,
	`{"v":1,"data":[]}`,
	`{"v":1,"data":"x"}`,
	"\ufeff" + `{"v":1,"data":{}}`,
	`[]`, `null`, ``, `{}`, `{"v":1,"data":{}}   `,
}

func TestParseBodyMatchesOracleOnEdgeCases(t *testing.T) {
	for i, body := range parseCases {
		assertSameParse(t, fmt.Sprintf("case %d", i), []byte(body))
	}
}

// FuzzParseBody: on any input ParseBody must return what the two-pass
// oracle returns — the same error text and a deeply equal value — for
// fresh and pre-populated destinations alike.
func FuzzParseBody(f *testing.F) {
	for _, v := range goldenExamples() {
		rec := httptest.NewRecorder()
		WriteData(rec, http.StatusOK, v)
		f.Add(rec.Body.Bytes())
	}
	for _, body := range parseCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertSameParse(t, "fuzz", body)
	})
}

// referenceReadAttestRequest is ReadAttestRequest before the codec path,
// kept verbatim as its oracle: for every body the one-pass decoder must
// return the same value and error.
func referenceReadAttestRequest(body io.Reader) (AttestRequest, error) {
	var req AttestRequest
	raw, err := io.ReadAll(io.LimitReader(body, MaxRequestBody+1))
	if err != nil {
		return req, fmt.Errorf("reading attest request: %w", err)
	}
	if len(raw) > MaxRequestBody {
		return req, fmt.Errorf("attest request exceeds %d bytes", MaxRequestBody)
	}
	if len(bytes.Trim(raw, " \t\r\n")) == 0 {
		return req, nil
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return req, fmt.Errorf("parsing attest request: %w", err)
	}
	return req, nil
}

// assertSameAttestRequest reads body through ReadAttestRequest and the
// oracle and requires the same error text and a deeply equal value; a body
// that parses must also re-encode through AppendAttestRequest to the bytes
// json.Marshal writes.
func assertSameAttestRequest(t testing.TB, body []byte) {
	t.Helper()
	got, gerr := ReadAttestRequest(bytes.NewReader(body))
	want, werr := referenceReadAttestRequest(bytes.NewReader(body))
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: got %#v, %v; oracle %#v, %v", body, got, gerr, want, werr)
	}
	if werr != nil {
		return
	}
	raw, _ := json.Marshal(want)
	if enc := AppendAttestRequest(nil, want.Links); !bytes.Equal(enc, raw) {
		t.Fatalf("links %q encode to %s, json.Marshal writes %s", want.Links, enc, raw)
	}
}

// attestRequests are POST /v1/attest bodies at the edges of the canonical
// subset: what the codec must decode, and what it must leave to
// encoding/json.
var attestRequests = []string{
	``, ` `, `{}`, ` {"links":[]} `, `{"links":["dimm00"]}`, `{"links":["a","b","a"]}`,
	"{\n  \"links\": [\n    \"a\",\n    \"b\"\n  ]\n}\n", `{"links":null}`,
	`{"links":["a"],"links":["b"]}`, `{"LINKS":["a"]}`, `{"links":["a"],"x":1}`,
	`{"links":["a\u0062"]}`, `{"links":["a\nb"]}`, "{\"links\":[\"bad\xff\"]}",
	`{"links":["日本語"]}`, "{\"links\":[\"\xed\xa0\x80\"]}", `{"links":[1]}`,
	`{"links":"a"}`, `{"links":["a",]}`, `{"links":["a"]} x`, `{"links":["a"]}{}`,
	`{"links":["a"]`, `[]`, `null`, "\ufeff{}",
}

// TestReadAttestRequestMatchesOracle covers the request edge cases and
// checks that a client-written body takes the one-pass path.
func TestReadAttestRequestMatchesOracle(t *testing.T) {
	for _, body := range attestRequests {
		assertSameAttestRequest(t, []byte(body))
	}
	for _, ids := range [][]string{{"dimm00"}, {"a", "b", "a"}, codecStrings} {
		raw, _ := json.Marshal(AttestRequest{Links: ids})
		assertSameAttestRequest(t, raw)
	}
	var req AttestRequest
	if !parseAttestRequest(AppendAttestRequest(nil, []string{"dimm00", "bus-007"}), &req) {
		t.Error("a client-written request fell back to encoding/json")
	}
}

// FuzzReadAttestRequest: on any body ReadAttestRequest must return what the
// encoding/json oracle returns.
func FuzzReadAttestRequest(f *testing.F) {
	for _, body := range attestRequests {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		assertSameAttestRequest(t, body)
	})
}

// bodyRecorder is a ResponseWriter that keeps only the last body, so an
// allocation count sees the codec and not the recorder.
type bodyRecorder struct {
	h    http.Header
	body []byte
}

func (r *bodyRecorder) Header() http.Header { return r.h }
func (r *bodyRecorder) WriteHeader(int)     {}
func (r *bodyRecorder) Write(p []byte) (int, error) {
	r.body = append(r.body[:0], p...)
	return len(p), nil
}

// sweep is a federated answer of n cached verdicts across two shards, the
// shape a fleet-wide sweep returns.
func sweep(n int) FederatedAttestResponse {
	r := FederatedAttestResponse{AllAccepted: true, Complete: true, Shards: []ShardStatus{
		{Daemon: "d0", Addr: "http://127.0.0.1:9720", Up: true, Buses: n / 2},
		{Daemon: "d1", Addr: "http://127.0.0.1:9721", Up: true, Buses: n - n/2},
	}}
	for i := 0; i < n; i++ {
		r.Results = append(r.Results, AuthReport{
			ID: fmt.Sprintf("bus-%03d", i), Accepted: true, Score: 0.9996, Health: "ok",
			Cached: true, Daemon: fmt.Sprintf("d%d", i%2),
		})
	}
	return r
}

// TestWriteDataAllocationsIndependentOfVerdicts: encoding a federated
// envelope costs a small constant number of allocations (the header value),
// not one per verdict.
func TestWriteDataAllocationsIndependentOfVerdicts(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	w := &bodyRecorder{h: make(http.Header)}
	allocs := func(n int) float64 {
		var v any = sweep(n)
		WriteData(w, http.StatusOK, v)
		return testing.AllocsPerRun(100, func() { WriteData(w, http.StatusOK, v) })
	}
	small, large := allocs(16), allocs(256)
	if large > 4 || large > small {
		t.Errorf("WriteData allocs: %v for 16 verdicts, %v for 256; want a constant ≤ 4", small, large)
	}
}

func BenchmarkWriteDataSweep(b *testing.B) {
	var v any = sweep(256)
	for _, impl := range []struct {
		name  string
		write func(http.ResponseWriter, int, any)
	}{{"codec", WriteData}, {"reference", referenceWriteData}} {
		b.Run(impl.name, func(b *testing.B) {
			w := &bodyRecorder{h: make(http.Header)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.write(w, http.StatusOK, v)
			}
		})
	}
}

func BenchmarkParseBodySweep(b *testing.B) {
	w := &bodyRecorder{h: make(http.Header)}
	WriteData(w, http.StatusOK, sweep(256))
	for _, impl := range []struct {
		name  string
		parse func([]byte, any) error
	}{{"codec", ParseBody}, {"reference", referenceParseBody}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out FederatedAttestResponse
				if err := impl.parse(w.body, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package attest

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// The verdict-bearing responses — AuthReport, AttestResponse and
// FederatedAttestResponse — carry one entry per bus, and on a federated
// sweep they are encoded and decoded four times in series: the daemon
// encodes its shard, the herd decodes every shard and encodes the merge, the
// SDK decodes the merge. For these types WriteData and ParseBody use the
// reflection-free codec in this file; every other type keeps encoding/json.
//
// The encoder is byte-exact: it writes what json.Marshal embedded as a
// RawMessage and re-indented by an Encoder with SetIndent("", "  ") would
// write — the same key order and omitempty rules, null for a nil slice and
// [] for an empty one, encoding/json's float format, the trailing newline.
// A string outside plain printable ASCII, or holding one of `"\<>&`, is
// escaped by json.Marshal itself, so HTML escaping, U+2028/U+2029 and
// invalid UTF-8 come out exactly as before. A NaN or infinite float
// abandons the codec; the reflective path then answers with its 500.
//
// The decoder parses the envelope and its data in one pass, but only over a
// canonical subset of JSON: exact key names, each at most once, no unknown
// key, no null, strings without escapes, numbers that strconv parses the
// way encoding/json does, a version no newer than Version, and nothing after
// the envelope. It fills a scratch value and assigns the destination only
// once the whole body is accepted. Anything else — including a destination
// that is not zero-valued, since encoding/json merges into existing values —
// falls through to the two-pass encoding/json path, so every value and every
// error ParseBody returns is the one that path returns.

// maxPooledBody bounds the encode buffers kept for reuse; the rare larger
// body (a whole 100k-bus fleet) is left to the garbage collector.
const maxPooledBody = 1 << 20

var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// writeCodec renders v's success envelope with the hand encoder. It reports
// false, having written nothing, when v is not a codec type or holds a value
// only the reflective path can report.
func writeCodec(w http.ResponseWriter, status int, v any) bool {
	bp := encodeBufs.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledBody {
			encodeBufs.Put(bp)
		}
	}()
	e := encoder{b: append((*bp)[:0], "{\n  \"v\": "...)}
	e.b = strconv.AppendInt(e.b, Version, 10)
	e.b = append(e.b, ",\n  \"data\": "...)
	switch v := v.(type) {
	case AuthReport:
		e.authReport(1, &v)
	case AttestResponse:
		e.attestResponse(1, &v)
	case FederatedAttestResponse:
		e.federated(1, &v)
	default:
		return false
	}
	e.b = append(e.b, "\n}\n"...)
	*bp = e.b
	if e.bad {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.b)))
	w.WriteHeader(status)
	w.Write(e.b) //nolint:errcheck // client gone mid-response
	return true
}

// encoder appends indented JSON. Depth d is the nesting level of the value
// being written: its members sit on lines indented by d+1 steps.
type encoder struct {
	b []byte
	// bad records a NaN or infinite float, which JSON cannot carry.
	bad bool
}

// newlines is a newline followed by enough indentation for the deepest
// member the codec writes (a ShardError link, five levels down).
const newlines = "\n                "

func (e *encoder) newline(d int) { e.b = append(e.b, newlines[:1+2*d]...) }

// key opens member k of an object at depth d.
func (e *encoder) key(d int, k string, first bool) {
	if !first {
		e.b = append(e.b, ',')
	}
	e.newline(d + 1)
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, `": `...)
}

func (e *encoder) closeObject(d int) {
	e.newline(d)
	e.b = append(e.b, '}')
}

// openArray writes the start of an n-element array and reports whether
// elements follow: a nil slice is null and an empty one [], as encoding/json
// writes them.
func (e *encoder) openArray(isNil bool, n int) bool {
	switch {
	case isNil:
		e.b = append(e.b, "null"...)
		return false
	case n == 0:
		e.b = append(e.b, "[]"...)
		return false
	}
	e.b = append(e.b, '[')
	return true
}

// element separates array element i at depth d.
func (e *encoder) element(d, i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
	e.newline(d + 1)
}

func (e *encoder) closeArray(d int) {
	e.newline(d)
	e.b = append(e.b, ']')
}

func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, raw...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *encoder) boolean(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *encoder) int(v int) { e.b = strconv.AppendInt(e.b, int64(v), 10) }

// float writes f as encoding/json does: like ES6 number-to-string, 'f'
// format except below 1e-6 and from 1e21 up, with e-07 cleaned to e-7.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

func (e *encoder) authReport(d int, r *AuthReport) {
	e.b = append(e.b, '{')
	e.key(d, "id", true)
	e.str(r.ID)
	e.key(d, "accepted", false)
	e.boolean(r.Accepted)
	e.key(d, "score", false)
	e.float(r.Score)
	e.key(d, "tampered", false)
	e.boolean(r.Tampered)
	e.key(d, "tamper_position", false)
	e.float(r.TamperPosition)
	e.key(d, "health", false)
	e.str(r.Health)
	if r.Cached {
		e.key(d, "cached", false)
		e.boolean(true)
	}
	if r.Daemon != "" {
		e.key(d, "daemon", false)
		e.str(r.Daemon)
	}
	e.closeObject(d)
}

func (e *encoder) results(d int, rs []AuthReport) {
	if !e.openArray(rs == nil, len(rs)) {
		return
	}
	for i := range rs {
		e.element(d, i)
		e.authReport(d+1, &rs[i])
	}
	e.closeArray(d)
}

func (e *encoder) attestResponse(d int, r *AttestResponse) {
	e.b = append(e.b, '{')
	e.key(d, "results", true)
	e.results(d+1, r.Results)
	e.key(d, "all_accepted", false)
	e.boolean(r.AllAccepted)
	e.closeObject(d)
}

func (e *encoder) federated(d int, r *FederatedAttestResponse) {
	e.b = append(e.b, '{')
	e.key(d, "results", true)
	e.results(d+1, r.Results)
	e.key(d, "all_accepted", false)
	e.boolean(r.AllAccepted)
	e.key(d, "complete", false)
	e.boolean(r.Complete)
	if len(r.Shards) > 0 {
		e.key(d, "shards", false)
		e.openArray(false, len(r.Shards))
		for i := range r.Shards {
			e.element(d+1, i)
			e.shardStatus(d+2, &r.Shards[i])
		}
		e.closeArray(d + 1)
	}
	if len(r.Errors) > 0 {
		e.key(d, "errors", false)
		e.openArray(false, len(r.Errors))
		for i := range r.Errors {
			e.element(d+1, i)
			e.shardError(d+2, &r.Errors[i])
		}
		e.closeArray(d + 1)
	}
	e.closeObject(d)
}

func (e *encoder) shardStatus(d int, s *ShardStatus) {
	e.b = append(e.b, '{')
	e.key(d, "daemon", true)
	e.str(s.Daemon)
	e.key(d, "addr", false)
	e.str(s.Addr)
	e.key(d, "up", false)
	e.boolean(s.Up)
	e.key(d, "buses", false)
	e.int(s.Buses)
	e.closeObject(d)
}

func (e *encoder) shardError(d int, s *ShardError) {
	e.b = append(e.b, '{')
	first := true
	if s.Daemon != "" {
		e.key(d, "daemon", true)
		e.str(s.Daemon)
		first = false
	}
	e.key(d, "code", first)
	e.str(s.Code)
	e.key(d, "message", false)
	e.str(s.Message)
	e.key(d, "links", false)
	if e.openArray(s.Links == nil, len(s.Links)) {
		for i, l := range s.Links {
			e.element(d+1, i)
			e.str(l)
		}
		e.closeArray(d + 1)
	}
	e.closeObject(d)
}

// AppendAttestRequest appends the POST /v1/attest body naming ids: the bytes
// json.Marshal writes for AttestRequest{Links: ids}.
func AppendAttestRequest(dst []byte, ids []string) []byte {
	if len(ids) == 0 {
		return append(dst, "{}"...)
	}
	e := encoder{b: append(dst, `{"links":[`...)}
	for i, id := range ids {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.str(id)
	}
	return append(e.b, "]}"...)
}

// parseAttestRequest decodes a POST /v1/attest body in one pass when it lies
// in the canonical subset, reporting false, with req untouched, otherwise.
func parseAttestRequest(body []byte, req *AttestRequest) bool {
	d := &decoder{b: body}
	var links []string
	var seen uint8
	ok := d.object(func(k []byte) bool {
		return string(k) == "links" && once(&seen, 1) && array(d, &links, (*decoder).str)
	})
	d.space()
	if !ok || d.i != len(d.b) {
		return false
	}
	req.Links = links
	return true
}

// parseCodec decodes body into out in one pass when out is a zero-valued
// codec type and body lies in the canonical subset. It reports false,
// leaving out untouched, otherwise.
func parseCodec(body []byte, out any) bool {
	d := &decoder{b: body}
	switch out := out.(type) {
	case *AuthReport:
		return out != nil && *out == (AuthReport{}) && decodeInto(d, out)
	case *AttestResponse:
		return out != nil && out.Results == nil && !out.AllAccepted && decodeInto(d, out)
	case *FederatedAttestResponse:
		return out != nil && out.Results == nil && !out.AllAccepted && !out.Complete &&
			out.Shards == nil && out.Errors == nil && decodeInto(d, out)
	}
	return false
}

// decodeInto parses the envelope into a scratch value and assigns *out only
// once the whole body is accepted.
func decodeInto[T any](d *decoder, out *T) bool {
	var v T
	if !d.envelope(&v) {
		return false
	}
	*out = v
	return true
}

// decoder is a single-pass parser over the canonical subset. Every method
// reports false on input outside it.
type decoder struct {
	b []byte
	i int
	// recent holds the last distinct values of the fields whose values
	// repeat across verdicts (health, shard name), reused instead of
	// allocating a copy per verdict.
	recent [8]string
	next   int
}

// jsonSpace has bit c set for each JSON whitespace byte c.
const jsonSpace = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

func (d *decoder) space() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' && jsonSpace>>d.b[d.i]&1 != 0 {
		d.i++
	}
}

// punct consumes c, after optional whitespace, when it comes next.
func (d *decoder) punct(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// raw returns the contents of an escape-free string.
func (d *decoder) raw() ([]byte, bool) {
	if !d.punct('"') {
		return nil, false
	}
	ascii := true
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			if !ascii && !utf8.Valid(s) {
				return nil, false
			}
			d.i = j + 1
			return s, true
		case c == '\\' || c < 0x20:
			return nil, false
		case c >= 0x80:
			ascii = false
		}
	}
	return nil, false
}

func (d *decoder) str(dst *string) bool {
	s, ok := d.raw()
	*dst = string(s)
	return ok
}

// interned is str for a field whose values repeat across verdicts.
func (d *decoder) interned(dst *string) bool {
	b, ok := d.raw()
	for _, r := range d.recent {
		if r == string(b) {
			*dst = r
			return ok
		}
	}
	*dst = string(b)
	d.recent[d.next] = *dst
	d.next = (d.next + 1) % len(d.recent)
	return ok
}

func (d *decoder) boolean(dst *bool) bool {
	d.space()
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*dst = true
		d.i += 4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*dst = false
		d.i += 5
	default:
		return false
	}
	return true
}

// number returns the next JSON number token, checked against the JSON
// grammar before strconv sees it (strconv alone would also take "+1",
// "01", "inf" or hex).
func (d *decoder) number() (string, bool) {
	d.space()
	b, j := d.b, d.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = digits(b, j)
	default:
		return "", false
	}
	if j < len(b) && b[j] == '.' {
		k := digits(b, j+1)
		if k == j+1 {
			return "", false
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(b, j)
		if k == j {
			return "", false
		}
		j = k
	}
	tok := b[d.i:j]
	d.i = j
	// The token is only parsed, never retained, so it can alias the body
	// instead of being copied out of it.
	return unsafe.String(unsafe.SliceData(tok), len(tok)), true
}

func digits(b []byte, j int) int {
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return j
}

func (d *decoder) float(dst *float64) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(tok, 64)
	*dst = f
	return err == nil
}

func (d *decoder) int(dst *int) bool {
	tok, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(tok, 10, strconv.IntSize)
	*dst = int(n)
	return err == nil
}

// object parses an object whose '{' is next, handing each member's key to
// member, which decodes the value. member reports false for an unknown key,
// a repeated one or a bad value.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.punct('{') {
		return false
	}
	if d.punct('}') {
		return true
	}
	for {
		k, ok := d.raw()
		if !ok || !d.punct(':') || !member(k) {
			return false
		}
		if !d.punct(',') {
			return d.punct('}')
		}
	}
}

// array parses an array whose '[' is next, decoding each element in place
// with elem. An empty array decodes to an empty, non-nil slice, as
// encoding/json leaves it.
func array[T any](d *decoder, dst *[]T, elem func(*decoder, *T) bool) bool {
	if !d.punct('[') {
		return false
	}
	s := make([]T, 0, 8)
	if !d.punct(']') {
		for {
			var zero T
			s = append(s, zero)
			if !elem(d, &s[len(s)-1]) {
				return false
			}
			if !d.punct(',') {
				if !d.punct(']') {
					return false
				}
				break
			}
		}
	}
	*dst = s
	return true
}

// once marks bit in *seen and reports whether it was clear: a key may
// appear only once.
func once(seen *uint8, bit uint8) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

func (d *decoder) envelope(data any) bool {
	var seen uint8
	ok := d.object(func(k []byte) bool {
		switch string(k) {
		case "v":
			var v int
			return once(&seen, 1<<0) && d.int(&v) && v <= Version
		case "data":
			return once(&seen, 1<<1) && d.data(data)
		}
		return false
	})
	d.space()
	return ok && seen == 3 && d.i == len(d.b)
}

func (d *decoder) data(out any) bool {
	switch out := out.(type) {
	case *AuthReport:
		return d.authReport(out)
	case *AttestResponse:
		return d.attestResponse(out)
	case *FederatedAttestResponse:
		return d.federated(out)
	}
	return false
}

func (d *decoder) authReport(r *AuthReport) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "id":
			return once(&seen, 1<<0) && d.str(&r.ID)
		case "accepted":
			return once(&seen, 1<<1) && d.boolean(&r.Accepted)
		case "score":
			return once(&seen, 1<<2) && d.float(&r.Score)
		case "tampered":
			return once(&seen, 1<<3) && d.boolean(&r.Tampered)
		case "tamper_position":
			return once(&seen, 1<<4) && d.float(&r.TamperPosition)
		case "health":
			return once(&seen, 1<<5) && d.interned(&r.Health)
		case "cached":
			return once(&seen, 1<<6) && d.boolean(&r.Cached)
		case "daemon":
			return once(&seen, 1<<7) && d.interned(&r.Daemon)
		}
		return false
	})
}

func (d *decoder) attestResponse(r *AttestResponse) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "results":
			return once(&seen, 1<<0) && array(d, &r.Results, (*decoder).authReport)
		case "all_accepted":
			return once(&seen, 1<<1) && d.boolean(&r.AllAccepted)
		}
		return false
	})
}

func (d *decoder) federated(r *FederatedAttestResponse) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "results":
			return once(&seen, 1<<0) && array(d, &r.Results, (*decoder).authReport)
		case "all_accepted":
			return once(&seen, 1<<1) && d.boolean(&r.AllAccepted)
		case "complete":
			return once(&seen, 1<<2) && d.boolean(&r.Complete)
		case "shards":
			return once(&seen, 1<<3) && array(d, &r.Shards, (*decoder).shardStatus)
		case "errors":
			return once(&seen, 1<<4) && array(d, &r.Errors, (*decoder).shardError)
		}
		return false
	})
}

func (d *decoder) shardStatus(s *ShardStatus) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "daemon":
			return once(&seen, 1<<0) && d.str(&s.Daemon)
		case "addr":
			return once(&seen, 1<<1) && d.str(&s.Addr)
		case "up":
			return once(&seen, 1<<2) && d.boolean(&s.Up)
		case "buses":
			return once(&seen, 1<<3) && d.int(&s.Buses)
		}
		return false
	})
}

func (d *decoder) shardError(s *ShardError) bool {
	var seen uint8
	return d.object(func(k []byte) bool {
		switch string(k) {
		case "daemon":
			return once(&seen, 1<<0) && d.str(&s.Daemon)
		case "code":
			return once(&seen, 1<<1) && d.str(&s.Code)
		case "message":
			return once(&seen, 1<<2) && d.str(&s.Message)
		case "links":
			return once(&seen, 1<<3) && array(d, &s.Links, (*decoder).str)
		}
		return false
	})
}

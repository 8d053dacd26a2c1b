package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Subscribe is the GET /v1/stream handshake: which links to watch, which
// event kinds to deliver, and each link's resume cursor. Empty Links means
// the whole fleet; empty Kinds means every kind the feed carries. A link
// present in After with a non-zero cursor is a continuity claim, answered
// with a Gap frame when the server cannot honor it.
//
// It travels as query parameters — links and kinds comma-separated, after
// as repeated link:seq pairs; the SDK (client.streamURL), curl and the smoke
// script all use this form — or as a JSON body, which, when present, wins
// wholesale over the query form.
type Subscribe struct {
	Links []string          `json:"links,omitempty"`
	Kinds []string          `json:"kinds,omitempty"`
	After map[string]uint64 `json:"after,omitempty"`
}

// Hello is the server's first frame on every stream connection: the resolved
// link set (sorted), so the subscriber knows exactly what a fleet-wide
// subscription expanded to.
type Hello struct {
	Links []string `json:"links"`
}

// Gap is a FrameGap payload: the subscriber asked link Link to resume past
// Resume, but the oldest sequence number the server can still serve is
// Oldest > Resume+1 — the events between fell off the bounded retention ring
// and can never be delivered.
type Gap struct {
	Link   string `json:"link"`
	Resume uint64 `json:"resume"`
	Oldest uint64 `json:"oldest"`
}

// ErrorInfo is a FrameError payload: a structured terminal error using the
// same code vocabulary as the v1 JSON envelope.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// maxSubscribeBody bounds the handshake body read.
const maxSubscribeBody = 1 << 20

// ParseSubscribeRequest reads a stream subscription from an HTTP request:
// query parameters first, then a JSON body (which, when non-empty, replaces
// the query form entirely). Malformed input is an error the caller should
// answer as bad_request. Both forms yield the same value for the same
// request: empty lists and maps come back nil, and invalid UTF-8 in a query
// value becomes U+FFFD per bad byte, as encoding/json decodes a body.
func ParseSubscribeRequest(r *http.Request) (Subscribe, error) {
	var sub Subscribe
	q := r.URL.Query()
	sub.Links = splitList(q["links"])
	sub.Kinds = splitList(q["kinds"])
	for _, raw := range splitList(q["after"]) {
		i := strings.LastIndexByte(raw, ':')
		if i <= 0 || i == len(raw)-1 {
			return sub, fmt.Errorf("bad after entry %q: want link:seq", raw)
		}
		seq, err := strconv.ParseUint(raw[i+1:], 10, 64)
		if err != nil {
			return sub, fmt.Errorf("bad after entry %q: %v", raw, err)
		}
		if sub.After == nil {
			sub.After = make(map[string]uint64)
		}
		sub.After[raw[:i]] = seq
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSubscribeBody))
	if err != nil {
		return sub, fmt.Errorf("reading subscribe body: %v", err)
	}
	if len(body) > 0 {
		sub = Subscribe{}
		if err := json.Unmarshal(body, &sub); err != nil {
			return sub, fmt.Errorf("parsing subscribe body: %v", err)
		}
		if len(sub.Links) == 0 {
			sub.Links = nil
		}
		if len(sub.Kinds) == 0 {
			sub.Kinds = nil
		}
		if len(sub.After) == 0 {
			sub.After = nil
		}
	}
	return sub, nil
}

// splitList flattens repeated, comma-separated query values into one list,
// dropping empty entries.
func splitList(values []string) []string {
	var out []string
	for _, v := range values {
		if !utf8.ValidString(v) {
			v = string([]rune(v)) // each invalid byte becomes U+FFFD
		}
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

package attest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Error codes. Every error response carries exactly one; StatusFor maps each
// to its HTTP status. Clients branch on the code — the status is transport
// decoration.
const (
	// CodeBadRequest (400): the request was malformed (unparseable body,
	// bad query parameter).
	CodeBadRequest = "bad_request"
	// CodeUnknownLink (404): the named bus is not part of the fleet.
	CodeUnknownLink = "unknown_link"
	// CodeNotCalibrated (409): the bus exists but has no enrollment to
	// attest against.
	CodeNotCalibrated = "not_calibrated"
	// CodeUnavailable (503): the daemon is shutting down; retry elsewhere.
	CodeUnavailable = "unavailable"
	// CodeInternal (500): the daemon failed; the message is diagnostic only.
	CodeInternal = "internal"
)

// StatusFor returns the HTTP status an error code travels under. Unknown
// codes (a newer server talking to an older client's vocabulary) map to 500.
func StatusFor(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknownLink:
		return http.StatusNotFound
	case CodeNotCalibrated:
		return http.StatusConflict
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Error is the wire error payload. It implements error so clients can
// surface it directly.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Envelope is the versioned wrapper around every JSON response. Exactly one
// of Data and Error is set.
type Envelope struct {
	V     int             `json:"v"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error *Error          `json:"error,omitempty"`
}

// WriteData renders a success envelope. Encoding failures of v itself are a
// programming error and reported as a 500 error envelope. The verdict-bearing
// responses take the reflection-free codec (codec.go), which writes the same
// bytes.
func WriteData(w http.ResponseWriter, status int, v any) {
	if writeCodec(w, status, v) {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		WriteError(w, CodeInternal, "encoding response: %v", err)
		return
	}
	writeEnvelope(w, status, Envelope{V: Version, Data: raw})
}

// WriteError renders an error envelope under the code's documented status.
func WriteError(w http.ResponseWriter, code, format string, args ...any) {
	writeEnvelope(w, StatusFor(code), Envelope{
		V:     Version,
		Error: &Error{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

func writeEnvelope(w http.ResponseWriter, status int, env Envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(env) //nolint:errcheck // client gone mid-response
}

// ParseBody unwraps an envelope: an error envelope comes back as *Error, a
// success envelope is unmarshalled into out (out may be nil to discard).
// Future protocol versions are rejected rather than misread. A zero-valued
// verdict-bearing destination in canonical form is decoded in one pass by the
// codec (codec.go); everything else, and every error, comes from the
// two-pass encoding/json path below.
func ParseBody(body []byte, out any) error {
	if parseCodec(body, out) {
		return nil
	}
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

// MaxRequestBody bounds the request bodies the servers read.
const MaxRequestBody = 16 << 20

// ReadAttestRequest reads and parses a POST /v1/attest body for divotd and
// divotherd alike. An empty or all-whitespace body is the whole-fleet
// request. A body larger than MaxRequestBody, or one that is not exactly one
// JSON value decoding into AttestRequest (trailing data and a second value
// included), is an error the servers answer 400 bad_request. A body in the
// codec's canonical subset is decoded in one pass (codec.go); everything
// else, and every error, comes from encoding/json.
func ReadAttestRequest(body io.Reader) (AttestRequest, error) {
	var req AttestRequest
	raw, err := io.ReadAll(io.LimitReader(body, MaxRequestBody+1))
	if err != nil {
		return req, fmt.Errorf("reading attest request: %w", err)
	}
	if len(raw) > MaxRequestBody {
		return req, fmt.Errorf("attest request exceeds %d bytes", MaxRequestBody)
	}
	if len(bytes.Trim(raw, " \t\r\n")) == 0 || parseAttestRequest(raw, &req) {
		return req, nil
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return req, fmt.Errorf("parsing attest request: %w", err)
	}
	return req, nil
}

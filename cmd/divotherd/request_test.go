package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divot/internal/attest"
)

// TestAttestRequestParsing drives the same POST /v1/attest bodies through
// divotd's and divotherd's handlers: both read the request through
// attest.ReadAttestRequest, so both must answer every body the same way.
func TestAttestRequestParsing(t *testing.T) {
	h, pack := newTestHerd(t, 1, busNames(2))
	handlers := map[string]http.Handler{
		"divotd":    pack[0].d.Handler(),
		"divotherd": h.Handler(),
	}
	oversize := `{"links":["dimm00"]}` + strings.Repeat(" ", attest.MaxRequestBody)
	cases := []struct {
		name, body string
		status     int
		code       string
		results    int
	}{
		{"empty body attests the fleet", "", 200, "", 2},
		{"whitespace body attests the fleet", " \n\t", 200, "", 2},
		{"empty links attest the fleet", `{"links":[]}`, 200, "", 2},
		{"one bus", `{"links":["dimm01"]}`, 200, "", 1},
		{"trailing garbage", `{"links":["dimm00"]} this is not json`, 400, attest.CodeBadRequest, 0},
		{"second value", `{"links":["dimm00"]}{"links":["nope"]}`, 400, attest.CodeBadRequest, 0},
		{"truncated", `{"links":["dimm00"]`, 400, attest.CodeBadRequest, 0},
		{"wrong type", `{"links":"dimm00"}`, 400, attest.CodeBadRequest, 0},
		{"oversize", oversize, 400, attest.CodeBadRequest, 0},
		{"unknown bus", `{"links":["nope"]}`, 404, attest.CodeUnknownLink, 0},
	}
	for name, handler := range handlers {
		for _, tc := range cases {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/attest", strings.NewReader(tc.body)))
			if rec.Code != tc.status {
				t.Errorf("%s, %s: status %d, want %d (%s)", name, tc.name, rec.Code, tc.status, rec.Body.Bytes())
				continue
			}
			var resp attest.AttestResponse
			err := attest.ParseBody(rec.Body.Bytes(), &resp)
			if tc.code != "" {
				if werr, ok := err.(*attest.Error); !ok || werr.Code != tc.code {
					t.Errorf("%s, %s: error %v, want code %s", name, tc.name, err, tc.code)
				}
				continue
			}
			if err != nil || len(resp.Results) != tc.results {
				t.Errorf("%s, %s: %d results, err %v; want %d", name, tc.name, len(resp.Results), err, tc.results)
			}
		}
	}
}

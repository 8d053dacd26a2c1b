package daemon

import (
	"net/http"
	"strconv"

	"divot/internal/attest"
)

// handleAttest serves batch remote attestation: one read-only spot check per
// requested bus (every bus when the request names none), serialized with
// each bus's scheduler. The results come back in request order — fleet id
// order for the whole-fleet form — so retries of the same request are
// byte-comparable.
func (d *Daemon) handleAttest(w http.ResponseWriter, r *http.Request) {
	req, err := attest.ReadAttestRequest(r.Body)
	if err != nil {
		attest.WriteError(w, attest.CodeBadRequest, "%v", err)
		return
	}
	var targets []*linkState
	if len(req.Links) == 0 {
		targets = d.sortedLinks()
	} else {
		targets = make([]*linkState, 0, len(req.Links))
		for _, id := range req.Links {
			ls, ok := d.byID[id]
			if !ok {
				attest.WriteError(w, attest.CodeUnknownLink, "unknown bus %q", id)
				return
			}
			targets = append(targets, ls)
		}
	}
	resp := attest.AttestResponse{
		Results:     make([]attest.AuthReport, 0, len(targets)),
		AllAccepted: true,
	}
	for _, ls := range targets {
		rep := d.attestOne(ls)
		if !rep.Accepted {
			resp.AllAccepted = false
		}
		resp.Results = append(resp.Results, rep)
	}
	attest.WriteData(w, http.StatusOK, resp)
}

// handleEvents serves one bus's event feed as server-sent events: the same
// subscription core as GET /v1/stream (serveFeed) for a single link, with no
// kind filter, rendered as text. The frame format and the per-link sequence
// numbers are documented in internal/attest; ?after=N resumes past events the
// client has already seen.
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	ls, ok := d.lookup(w, r)
	if !ok {
		return
	}
	after := uint64(0)
	if raw := r.URL.Query().Get("after"); raw != "" {
		n, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			attest.WriteError(w, attest.CodeBadRequest, "bad after=%q: %v", raw, err)
			return
		}
		after = n
	}
	d.serveFeed(w, r, []*linkState{ls}, map[string]uint64{ls.id: after}, nil, sseFeed{})
}

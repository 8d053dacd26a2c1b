package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// Main is the divotd command entry point without the process plumbing, so
// tests can drive flag parsing and spec loading and assert on the exit code.
func Main(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("divotd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "fleet spec JSON file (required)")
	listen := fs.String("listen", "", "override the spec's listen address")
	fedID := fs.String("federation-id", "",
		"override the spec's federation id (the label a divotherd aggregator groups this daemon under, surfaced in /healthz and /v1/health)")
	stateDir := fs.String("state-dir", "",
		"override the spec's state_dir (durable enrollment snapshots + history/audit WALs; a restart warm-restores the fleet from it)")
	pprofAddr := fs.String("pprof-addr", "",
		"serve net/http/pprof on this address over its own listener (empty = disabled; never exposed on the attestation API)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "divotd: %v\n", err)
		return 1
	}
	if *listen != "" {
		spec.Listen = *listen
	}
	if *fedID != "" {
		spec.FederationID = *fedID
	}
	if *stateDir != "" {
		spec.StateDir = *stateDir
	}
	// New defers restore/calibration to Run, which binds the socket first and
	// serves /readyz progress while the fleet warms.
	d, err := New(spec, Options{})
	if err != nil {
		fmt.Fprintf(stderr, "divotd: %v\n", err)
		return 1
	}
	if *pprofAddr != "" {
		stopPprof, err := servePprof(*pprofAddr, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "divotd: %v\n", err)
			return 1
		}
		defer stopPprof()
	}
	if err := d.Run(ctx, stdout); err != nil {
		fmt.Fprintf(stderr, "divotd: %v\n", err)
		return 1
	}
	return 0
}

// servePprof exposes the runtime profiler on its own listener, deliberately
// separate from the attestation API: an operator opts in per process with
// -pprof-addr (typically bound to localhost), and the attestation listener
// never learns the /debug/pprof routes.
func servePprof(addr string, logw io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listening for pprof on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // closed on shutdown
	fmt.Fprintf(logw, "divotd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { srv.Close() }, nil
}

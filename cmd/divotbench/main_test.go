package main

import (
	"bytes"
	"os"
	"regexp"
	"runtime"
	"testing"

	"divot/internal/exper"
)

// timingLine matches the "(<id> in <t>s)" line writeTables prints after each
// table; it is wall-clock time, so the golden comparison drops it.
var timingLine = regexp.MustCompile(`(?m)^\([^ ()]+ in [0-9.]+s\)\n`)

// TestFullResultsGolden regenerates `divotbench -mode full -seed 42` and
// compares it byte for byte with the recorded full_results.txt, timing lines
// aside. A deliberate output change re-records the file in the same commit.
// The recording is amd64-only: other architectures may fuse x*y+z into one
// rounding and legitimately differ in the last printed digit.
func TestFullResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-mode reproduction takes ~20 s")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("full_results.txt is recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	want, err := os.ReadFile("../../full_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	writeTables(&got, exper.All(), 42, exper.Full)
	g, w := timingLine.ReplaceAll(got.Bytes(), nil), timingLine.ReplaceAll(want, nil)
	if bytes.Equal(g, w) {
		return
	}
	gl, wl := bytes.Split(g, []byte("\n")), bytes.Split(w, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var a, b []byte
		if i < len(gl) {
			a = gl[i]
		}
		if i < len(wl) {
			b = wl[i]
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("output differs from full_results.txt at line %d (timing lines dropped):\n got: %s\nwant: %s", i+1, a, b)
		}
	}
}

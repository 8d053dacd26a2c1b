package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: divot
cpu: some CPU @ 2.80GHz
BenchmarkIIPMeasurement-8                	       1	  32876311 ns/op	  806304 B/op	      24 allocs/op
BenchmarkSimilarity-8                    	  838552	      1391 ns/op	       0 B/op	       0 allocs/op
BenchmarkMonitorRoundTelemetry/nosink-8  	       1	  68229000 ns/op	 1612608 B/op	      48 allocs/op
BenchmarkMonitorRoundTelemetry/sink-8    	       1	  69120000 ns/op	 1613400 B/op	      62 allocs/op
PASS
ok  	divot	12.345s
`

func TestParse(t *testing.T) {
	results, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(results), results)
	}
	first := results[0]
	if first.Name != "IIPMeasurement" || first.Procs != 8 || first.Iterations != 1 ||
		first.NsPerOp != 32876311 || first.BytesPerOp != 806304 || first.AllocsPerOp != 24 {
		t.Errorf("first result mis-parsed: %+v", first)
	}
	if results[2].Name != "MonitorRoundTelemetry/nosink" {
		t.Errorf("sub-benchmark name = %q", results[2].Name)
	}
	// A zero-allocation result still carries the columns explicitly.
	if sim := results[1]; !sim.hasMem || sim.BytesPerOp != 0 || sim.AllocsPerOp != 0 {
		t.Errorf("zero-alloc result mis-parsed: %+v", sim)
	}
}

func TestParseRecordsCustomMetrics(t *testing.T) {
	line := "BenchmarkEventFanout/watchers=10000-8 \t 5391 \t 401857 ns/op \t " +
		"0.9778 cores \t 626.3 deliveries/op \t 1558646 frames/s \t 406 B/op \t 0 allocs/op"
	res, ok := parseLine(line)
	if !ok {
		t.Fatalf("line did not parse: %q", line)
	}
	if res.Name != "EventFanout/watchers=10000" || !res.hasMem {
		t.Fatalf("mis-parsed: %+v", res)
	}
	want := map[string]float64{"cores": 0.9778, "deliveries/op": 626.3, "frames/s": 1558646}
	if len(res.Metrics) != len(want) {
		t.Fatalf("metrics = %v, want %v", res.Metrics, want)
	}
	for unit, v := range want {
		if res.Metrics[unit] != v {
			t.Errorf("metric %q = %v, want %v", unit, res.Metrics[unit], v)
		}
	}
	// Plain lines must not grow a metrics map (and must omit it from JSON).
	plain, _ := parseLine(sampleOutput[strings.Index(sampleOutput, "BenchmarkSimilarity"):])
	if plain.Metrics != nil {
		t.Errorf("plain line grew metrics: %v", plain.Metrics)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	divot	1.2s",
		"goos: linux",
		"Benchmark", // name alone, no fields
		"BenchmarkX-8 notanumber 12 ns/op",
		"--- BENCH: BenchmarkX-8",
	} {
		if res, ok := parseLine(line); ok {
			t.Errorf("line %q parsed as %+v", line, res)
		}
	}
}

func TestRunEmitsJSONArray(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(strings.NewReader(sampleOutput), &out, &errOut, nil, nil, -1); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var results []result
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(results) != 4 {
		t.Fatalf("round-tripped %d results, want 4", len(results))
	}
	// The allocation columns must always be encoded, even at zero, so
	// snapshot diffs never lose them to omitempty.
	if !bytes.Contains(out.Bytes(), []byte(`"bytes_per_op": 0`)) ||
		!bytes.Contains(out.Bytes(), []byte(`"allocs_per_op": 0`)) {
		t.Errorf("zero mem columns omitted from JSON:\n%s", out.String())
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(strings.NewReader("PASS\nok\n"), &out, &errOut, nil, nil, -1); code != 1 {
		t.Errorf("empty input exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no benchmark lines") {
		t.Errorf("stderr %q should explain the empty input", errOut.String())
	}
}

func TestRunRejectsMissingBenchmem(t *testing.T) {
	var out, errOut bytes.Buffer
	in := "BenchmarkNoMem-4 	     200	    123456 ns/op\n"
	if code := run(strings.NewReader(in), &out, &errOut, nil, nil, -1); code != 1 {
		t.Errorf("no-benchmem input exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-benchmem") {
		t.Errorf("stderr %q should tell the user to pass -benchmem", errOut.String())
	}
}

func TestAllocBudgets(t *testing.T) {
	b := allocBudgets{}
	if err := b.Set("MonitorRound=2"); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("Attest/warm=0"); err != nil {
		t.Fatal(err)
	}
	if err := b.Set("Fed/daemons=4/buses=1000=7"); err != nil || b["Fed/daemons=4/buses=1000"] != 7 {
		t.Fatalf("a name holding '=' parsed to %v (err %v)", b, err)
	}
	delete(b, "Fed/daemons=4/buses=1000")
	for _, bad := range []string{"", "NoEquals", "=3", "X=-1", "X=abc"} {
		if err := b.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}

	within := "BenchmarkMonitorRound-8 	 10	 100 ns/op	 0 B/op	 2 allocs/op\n" +
		"BenchmarkAttest/warm-8 	 10	 100 ns/op	 0 B/op	 0 allocs/op\n"
	var out, errOut bytes.Buffer
	if code := run(strings.NewReader(within), &out, &errOut, b, nil, -1); code != 0 {
		t.Errorf("within-budget exit = %d, stderr: %s", code, errOut.String())
	}

	over := "BenchmarkMonitorRound-8 	 10	 100 ns/op	 64 B/op	 3 allocs/op\n" +
		"BenchmarkAttest/warm-8 	 10	 100 ns/op	 0 B/op	 0 allocs/op\n"
	out.Reset()
	errOut.Reset()
	if code := run(strings.NewReader(over), &out, &errOut, b, nil, -1); code != 1 {
		t.Errorf("over-budget exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "budget") {
		t.Errorf("stderr %q should name the blown budget", errOut.String())
	}

	// A budget whose benchmark never ran must fail too.
	missing := "BenchmarkMonitorRound-8 	 10	 100 ns/op	 0 B/op	 0 allocs/op\n"
	out.Reset()
	errOut.Reset()
	if code := run(strings.NewReader(missing), &out, &errOut, b, nil, -1); code != 1 {
		t.Errorf("missing-benchmark exit = %d, want 1", code)
	}
}

func TestCompareReportsDeltas(t *testing.T) {
	baseline := []result{
		{Name: "MonitorRound", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
		{Name: "Retired", NsPerOp: 5, BytesPerOp: 5, AllocsPerOp: 5},
	}
	in := "BenchmarkMonitorRound-8 	 10	 900 ns/op	 100 B/op	 10 allocs/op\n" +
		"BenchmarkFresh-8 	 10	 50 ns/op	 0 B/op	 0 allocs/op\n"
	var out, errOut bytes.Buffer
	if code := run(strings.NewReader(in), &out, &errOut, nil, baseline, -1); code != 0 {
		t.Fatalf("report-only compare exit = %d, stderr: %s", code, errOut.String())
	}
	msg := errOut.String()
	if !strings.Contains(msg, "MonitorRound") || !strings.Contains(msg, "-10.0%") {
		t.Errorf("stderr %q should show the ns/op improvement", msg)
	}
	if !strings.Contains(msg, "Fresh: new (no baseline)") {
		t.Errorf("stderr %q should mark the new benchmark", msg)
	}
	// Baseline entries that did not run are skipped, not failed — a guard
	// benches a subset of the snapshot.
	if strings.Contains(msg, "Retired") {
		t.Errorf("stderr %q should skip retired baseline entries", msg)
	}
}

func TestCompareMaxRegress(t *testing.T) {
	baseline := []result{
		{Name: "MonitorRound", NsPerOp: 1000, BytesPerOp: 100, AllocsPerOp: 10},
	}
	within := "BenchmarkMonitorRound-8 	 10	 1040 ns/op	 100 B/op	 10 allocs/op\n"
	var out, errOut bytes.Buffer
	if code := run(strings.NewReader(within), &out, &errOut, nil, baseline, 5); code != 0 {
		t.Fatalf("within-threshold exit = %d, stderr: %s", code, errOut.String())
	}

	over := "BenchmarkMonitorRound-8 	 10	 1200 ns/op	 100 B/op	 10 allocs/op\n"
	out.Reset()
	errOut.Reset()
	if code := run(strings.NewReader(over), &out, &errOut, nil, baseline, 5); code != 1 {
		t.Errorf("ns regression past threshold exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "regressed") {
		t.Errorf("stderr %q should name the regression", errOut.String())
	}

	// Allocation growth trips the same gate.
	allocUp := "BenchmarkMonitorRound-8 	 10	 1000 ns/op	 100 B/op	 12 allocs/op\n"
	out.Reset()
	errOut.Reset()
	if code := run(strings.NewReader(allocUp), &out, &errOut, nil, baseline, 5); code != 1 {
		t.Errorf("alloc regression exit = %d, want 1", code)
	}

	// A zero baseline that grows has no finite percentage — always a failure.
	zeroBase := []result{{Name: "MonitorRound", NsPerOp: 1000, BytesPerOp: 0, AllocsPerOp: 0}}
	grew := "BenchmarkMonitorRound-8 	 10	 1000 ns/op	 8 B/op	 1 allocs/op\n"
	out.Reset()
	errOut.Reset()
	if code := run(strings.NewReader(grew), &out, &errOut, nil, zeroBase, 50); code != 1 {
		t.Errorf("regression-from-zero exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "from zero") {
		t.Errorf("stderr %q should flag growth from a zero baseline", errOut.String())
	}
}

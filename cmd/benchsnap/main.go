// Command benchsnap converts `go test -bench -benchmem` output on stdin
// into a machine-readable JSON array on stdout, one object per benchmark
// result line:
//
//	[{"name": "MonitorRound", "procs": 8, "iterations": 100,
//	  "ns_per_op": 11897940, "bytes_per_op": 5374858, "allocs_per_op": 200}]
//
// Non-benchmark lines (package headers, PASS/ok, sub-test noise) are
// ignored, so the tool can sit directly on a `go test` pipe. `make
// bench-snapshot` is the canonical producer — it runs the hot-path micros
// and the federation sweep and records BENCH_$(PR).json (PR comes from the
// Makefile variable), the checkpoints the perf history is diffed on.
//
// Every result must carry B/op and allocs/op — benchsnap refuses input
// produced without -benchmem, so a snapshot can never silently drop the
// allocation columns.
//
// Repeatable -max-allocs name=N flags turn benchsnap into an allocation
// guard with three hard edges: a budgeted benchmark that allocates more
// than N allocs/op fails (exit 1), a budget naming a benchmark absent from
// the input fails (a guard that guards nothing would rot), and input
// without -benchmem columns fails before any budget is checked. `make
// bench-guard` runs the hot-path benchmarks through
// `-max-allocs MonitorRound=$(MONITOR_ALLOC_BUDGET)` (and the calibration
// budget) to fail the build when a hot path regresses.
//
// -compare OLD.json diffs the fresh run against a previously recorded
// snapshot: every benchmark present in both gets a ns/op, B/op, and
// allocs/op delta line on stderr; benchmarks new to this run are marked
// "new", and baseline entries that did not run are skipped (a guard run
// benches a subset of the snapshot). With -max-regress P (a percentage),
// any compared dimension growing by more than P% fails the run — a
// dimension whose baseline is zero fails on any growth, since no finite
// percentage describes it. -max-regress without -compare is an error:
// a regression gate with nothing to compare against would rot silently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`

	// Metrics holds any custom b.ReportMetric units on the line (e.g.
	// BenchmarkEventFanout's "cores" and "frames/s"), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// hasMem records whether the line actually carried B/op and allocs/op
	// (false means the run forgot -benchmem and zeros would be lies).
	hasMem bool
}

// allocBudgets maps benchmark name → maximum allowed allocs/op.
type allocBudgets map[string]int64

// String implements flag.Value.
func (b allocBudgets) String() string {
	parts := make([]string, 0, len(b))
	for name, n := range b {
		parts = append(parts, fmt.Sprintf("%s=%d", name, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Set implements flag.Value, parsing one name=N pair. The name may itself
// hold '=' (sub-benchmark names like daemons=4), so N follows the last one.
func (b allocBudgets) Set(s string) error {
	i := strings.LastIndexByte(s, '=')
	if i <= 0 {
		return fmt.Errorf("want name=N, got %q", s)
	}
	name, val := s[:i], s[i+1:]
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil || n < 0 {
		return fmt.Errorf("budget for %q must be a non-negative integer, got %q", name, val)
	}
	b[name] = n
	return nil
}

func main() {
	budgets := allocBudgets{}
	flag.Var(budgets, "max-allocs",
		"fail when benchmark `name=N` exceeds N allocs/op (repeatable)")
	comparePath := flag.String("compare", "",
		"prior benchsnap `snapshot` (JSON) to diff this run against")
	maxRegress := flag.Float64("max-regress", -1,
		"with -compare, fail when any ns/B/allocs dimension grows more than this `percent` (-1 reports only)")
	flag.Parse()
	var baseline []result
	if *comparePath != "" {
		raw, err := os.ReadFile(*comparePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: parsing baseline %s: %v\n", *comparePath, err)
			os.Exit(1)
		}
	} else if *maxRegress >= 0 {
		fmt.Fprintln(os.Stderr, "benchsnap: -max-regress needs -compare")
		os.Exit(1)
	}
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, budgets, baseline, *maxRegress))
}

// run parses benchmark lines from r, writes the JSON array to w, and
// enforces the allocation budgets and (with a baseline) the regression
// threshold.
func run(r io.Reader, w, errw io.Writer, budgets allocBudgets, baseline []result, maxRegress float64) int {
	results, err := parse(r)
	if err != nil {
		fmt.Fprintln(errw, "benchsnap:", err)
		return 1
	}
	if len(results) == 0 {
		fmt.Fprintln(errw, "benchsnap: no benchmark lines on stdin")
		return 1
	}
	for _, res := range results {
		if !res.hasMem {
			fmt.Fprintf(errw,
				"benchsnap: %s has no B/op / allocs/op — run go test with -benchmem\n", res.Name)
			return 1
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(errw, "benchsnap:", err)
		return 1
	}
	code := checkBudgets(results, budgets, errw)
	if baseline != nil {
		if c := compare(results, baseline, maxRegress, errw); c != 0 {
			code = c
		}
	}
	return code
}

// compare prints per-benchmark deltas against a prior snapshot and, when
// maxRegress >= 0, fails past the threshold. Benchmarks absent from the
// baseline are "new"; baseline entries that did not run are skipped, so a
// guard can bench a subset of a full snapshot.
func compare(results, baseline []result, maxRegress float64, errw io.Writer) int {
	byName := make(map[string]result, len(baseline))
	for _, res := range baseline {
		byName[res.Name] = res
	}
	code := 0
	for _, res := range results {
		old, ok := byName[res.Name]
		if !ok {
			fmt.Fprintf(errw, "benchsnap: %s: new (no baseline)\n", res.Name)
			continue
		}
		type dim struct {
			unit     string
			old, new float64
		}
		dims := []dim{
			{"ns/op", old.NsPerOp, res.NsPerOp},
			{"B/op", float64(old.BytesPerOp), float64(res.BytesPerOp)},
			{"allocs/op", float64(old.AllocsPerOp), float64(res.AllocsPerOp)},
		}
		parts := make([]string, 0, len(dims))
		for _, d := range dims {
			parts = append(parts, fmt.Sprintf("%s %s -> %s (%s)",
				d.unit, trimFloat(d.old), trimFloat(d.new), deltaPct(d.old, d.new)))
			if maxRegress < 0 {
				continue
			}
			switch {
			case d.old == 0 && d.new > 0:
				fmt.Fprintf(errw, "benchsnap: %s %s regressed from zero to %s\n",
					res.Name, d.unit, trimFloat(d.new))
				code = 1
			case d.old > 0 && (d.new-d.old)/d.old*100 > maxRegress:
				fmt.Fprintf(errw, "benchsnap: %s %s regressed %s, limit +%.1f%%\n",
					res.Name, d.unit, deltaPct(d.old, d.new), maxRegress)
				code = 1
			}
		}
		fmt.Fprintf(errw, "benchsnap: %s: %s\n", res.Name, strings.Join(parts, ", "))
	}
	return code
}

// deltaPct renders the relative change between two values.
func deltaPct(old, new float64) string {
	switch {
	case old == 0 && new == 0:
		return "+0.0%"
	case old == 0:
		return "new"
	default:
		return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
	}
}

// trimFloat renders a value without trailing zeros.
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// checkBudgets compares every budgeted benchmark against its ceiling. A
// budget naming a benchmark that did not run is itself an error — a guard
// that silently guards nothing would rot.
func checkBudgets(results []result, budgets allocBudgets, errw io.Writer) int {
	if len(budgets) == 0 {
		return 0
	}
	byName := make(map[string]result, len(results))
	for _, res := range results {
		byName[res.Name] = res
	}
	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	code := 0
	for _, name := range names {
		res, ok := byName[name]
		if !ok {
			fmt.Fprintf(errw, "benchsnap: budgeted benchmark %s not in input\n", name)
			code = 1
			continue
		}
		if res.AllocsPerOp > budgets[name] {
			fmt.Fprintf(errw, "benchsnap: %s allocates %d/op, budget %d/op\n",
				name, res.AllocsPerOp, budgets[name])
			code = 1
		}
	}
	return code
}

// parse scans `go test -bench` output and extracts every result line, in
// input order (the order benchmarks ran).
func parse(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if res, ok := parseLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// parseLine parses one line of the form
//
//	BenchmarkName-8   100   11897940 ns/op   5374858 B/op   200 allocs/op
//
// and reports whether the line was a benchmark result. Custom b.ReportMetric
// units land in Metrics verbatim; a line without both B/op and allocs/op is
// parsed but flagged, so run can reject snapshots taken without -benchmem.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	res := result{Name: strings.TrimPrefix(fields[0], "Benchmark"), Procs: 1}
	if i := strings.LastIndex(res.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	res.Iterations = iters

	// The rest is value/unit pairs.
	seenNs, seenB, seenAllocs := false, false, false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return result{}, false
			}
			res.NsPerOp = f
			seenNs = true
		case "B/op":
			res.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			seenB = true
		case "allocs/op":
			res.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			seenAllocs = true
		default:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				continue
			}
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = f
		}
	}
	res.hasMem = seenB && seenAllocs
	return res, seenNs
}

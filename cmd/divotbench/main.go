// Command divotbench regenerates the paper's tables and figures from the
// behavioral DIVOT simulation. Every artifact in DESIGN.md's per-experiment
// index is available by ID; the default runs them all.
//
// Usage:
//
//	divotbench [-mode quick|full] [-seed N] [-exp all|id1,id2,...] [-list]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"divot/internal/exper"
)

func main() {
	mode := flag.String("mode", "quick", "statistical depth: quick or full")
	seed := flag.Uint64("seed", 42, "root random seed")
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of tables")
	flag.Parse()

	if *list {
		for _, e := range exper.All() {
			fmt.Println(e.ID)
		}
		return
	}

	var m exper.Mode
	switch *mode {
	case "quick":
		m = exper.Quick
	case "full":
		m = exper.Full
	default:
		fmt.Fprintf(os.Stderr, "divotbench: unknown mode %q (want quick or full)\n", *mode)
		os.Exit(2)
	}

	var entries []exper.Entry
	if *expFlag == "all" {
		entries = exper.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			gen, ok := exper.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "divotbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, exper.Entry{ID: id, Generator: gen})
		}
	}

	if *jsonOut {
		results := make([]exper.Result, 0, len(entries))
		for _, e := range entries {
			results = append(results, e.Generator(*seed, m))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "divotbench:", err)
			os.Exit(1)
		}
		return
	}

	writeTables(os.Stdout, entries, *seed, m)
}

// writeTables prints each experiment's table followed by a "(<id> in <t>s)"
// timing line; full_results.txt is this output for -mode full -seed 42.
func writeTables(w io.Writer, entries []exper.Entry, seed uint64, m exper.Mode) {
	fmt.Fprintf(w, "DIVOT reproduction bench — mode=%s seed=%d — %d experiment(s)\n\n",
		m, seed, len(entries))
	for _, e := range entries {
		start := time.Now()
		r := e.Generator(seed, m)
		fmt.Fprint(w, r.String())
		fmt.Fprintf(w, "(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}

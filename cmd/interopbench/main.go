// Command interopbench runs the reproduction suite and checks it: the
// E1–E11 scenario reproductions (every worked example and figure of the
// paper) and the four count tables — B1 objects scanned with and without
// the derived constraints, B2 doomed subtransactions refused before
// shipping, B5 the class-based and union-all baselines, B6 conflicts and
// repair suggestions under injected weakenings. It takes no flags, reads
// no clock, and exits 1 when any check fails; `go test
// ./internal/experiments` asserts the same two calls. Timing belongs to
// the repo benchmark (BENCHMARK.json, benchmark/).
//
// Usage:
//
//	interopbench
package main

import (
	"fmt"
	"os"

	"interopdb/internal/experiments"
)

func main() {
	failed := false
	series := func(title string, run func() ([]experiments.Result, error)) {
		fmt.Printf("==================== %s ====================\n", title)
		results, err := run()
		if err != nil {
			fmt.Fprintln(os.Stderr, "interopbench:", err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Print(r)
			failed = failed || !r.Passed()
		}
	}
	series("E-series: scenario reproductions", experiments.All)
	series("B-series: count tables", experiments.Counts)
	if failed {
		fmt.Fprintln(os.Stderr, "interopbench: reproduction FAILED")
		os.Exit(1)
	}
	fmt.Println("\nall reproductions passed")
}

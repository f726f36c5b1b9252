// Command benchmark is the repository's benchmark: four named workloads
// driven through the program's public functions and its real loopback
// sockets, end-to-end and per-layer metrics, one traced run. It changes
// nothing in the program and claims no gain; README.md has the metric ↔
// layer ↔ workload table and how to run it.
//
//	go run -C benchmark . --workload scan-read --seed 1 --seconds 10 --trace 0
//	go run -C benchmark .            # all four, untraced then traced
//	go run -C benchmark . -agree 5   # two sets of 5 runs must agree
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs all four, untraced then traced")
		seed     = flag.Int64("seed", 1, "seed of the generated data and op scripts")
		seconds  = flag.Int("seconds", 0, "script length in seconds of the calibrated per-second op counts (default: BENCHMARK.json run_seconds)")
		trace    = flag.String("trace", "0", "1 records spans and prints the per-layer metrics; 0 prints the end-to-end metrics")
		agree    = flag.Int("agree", 0, "run two sets of N runs per workload and check their medians agree within the bounds")
		smoke    = flag.Bool("smoke", false, "tiny extents and scripts, for tests; the numbers mean nothing")
		outDir   = flag.String("out", "", "directory for trace and report files (default: out/ in the benchmark directory)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *agree, *smoke, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, trace string, agree int, smoke bool, outDir string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = spec.RunSeconds
	}
	if outDir == "" {
		outDir = "out"
		if _, err := os.Stat("BENCHMARK.json"); err == nil {
			outDir = filepath.Join("benchmark", "out")
		}
	}
	e := env{seed: seed, seconds: seconds, sc: fullScale, outDir: outDir}
	if smoke {
		e.sc = smokeScale
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		e.trace = true
	default:
		return fmt.Errorf("--trace %q: want 0 or 1", trace)
	}
	if agree > 0 {
		return runAgree(spec, agree, seed, seconds, smoke, outDir)
	}
	if workload == "" {
		return runAll(e, spec)
	}
	out, err := runWorkload(workload, e, spec)
	if out != nil {
		err = report(e, out, spec, err)
		printResultLine(out, spec, e.trace)
	}
	if errors.Is(err, errNegativeLayer) {
		// The result stands; the finding is timing, not correctness.
		// runAll, the report a person reads, does fail on it.
		fmt.Fprintln(os.Stderr, "benchmark: warning:", err)
		err = nil
	}
	if err != nil {
		return err
	}
	if out.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations and oracle checks failed", workload, out.Failed, out.Attempted)
	}
	return nil
}

func runWorkload(name string, e env, spec *benchSpec) (*runOutput, error) {
	switch name {
	case wlPointRead, wlMixed:
		return runWire(name, e, spec)
	case wlScanRead:
		return runScan(e, spec)
	case wlFederate:
		return runFederate(e, spec)
	}
	return nil, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(workloadNames, ", "))
}

// runAll is the one command that prints everything: each workload
// untraced for the end-to-end metrics, then traced for the per-layer
// ones, then the layer-separation findings and the predictions later
// issues are to be held against.
func runAll(e env, spec *benchSpec) error {
	failed := 0
	var firstErr error
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e.trace = traced
			out, err := runWorkload(name, e, spec)
			if out != nil {
				err = report(e, out, spec, err)
				failed += out.Failed
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	fmt.Print(predictions)
	if firstErr != nil {
		return firstErr
	}
	if failed > 0 {
		return fmt.Errorf("%d operations and oracle checks failed", failed)
	}
	return nil
}

// predictions is printed beside the numbers: what the layer shares above
// imply for the open items, written before any of them is attempted.
const predictions = `
predictions (ROADMAP open items, to be checked against the numbers above)
  - two clients share two cores with the in-process server, so a wire or server
    saving is bounded by its share of the blocking steps (share.wire + share.server
    of wire-point-read); it must not move scan-read or federate-attach.
  - store.commit_us_per_tx dwarfs store.wal_us_per_tx in write latency, so group
    commit (item c) should show little on heavy_p50_us of wire-mixed-durable until
    the O(extent) member commit (item d) is fixed.
  - a plan theory/data split (item b) should move light_p50_us on wire-mixed-durable
    only, through view.replan_us_after_write and view.plan_hit_rate.
  - a binary checkpoint/WAL body (item a) should move recovery_ms, store.recover_*
    and store.space_amp, not heavy_p50_us.
`

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// printReport prints every metric by name with unit, sample count and,
// for the gated ones, bound.
func printReport(out *runOutput, spec *benchSpec) {
	mode := "untraced"
	if out.PerLayer != nil {
		mode = "traced"
	}
	fmt.Printf("\n== %s (%s) seed=%v script=%.12s ops=%v clients=%v nproc=%v GOMAXPROCS=%v %v\n",
		out.Workload, mode, out.Config["seed"], out.Config["script_hash"], out.Config["script_ops"],
		out.Config["clients"], out.Config["nproc"], out.Config["gomaxprocs"], out.Config["go_version"])
	fmt.Printf("   attempted=%d failed=%d\n", out.Attempted, out.Failed)
	if out.PerLayer == nil {
		for _, n := range sortedNames(out.EndToEnd) {
			m := out.EndToEnd[n]
			bound := ""
			if b := spec.bound(n); b > 0 {
				bound = fmt.Sprintf("  bound=%.2f", b)
			}
			fmt.Printf("   %-28s %14.4f %-6s n=%d%s\n", n, m.Value, m.Unit, m.Samples, bound)
		}
		return
	}
	for _, n := range sortedNames(out.PerLayer) {
		m := out.PerLayer[n]
		fmt.Printf("   %-36s %14.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	for _, n := range out.Notes {
		fmt.Println("   " + n)
	}
	if out.TraceFile != "" {
		fmt.Println("   trace:", out.TraceFile)
	}
}

// report prints a run's metrics and writes its report file; it returns
// the run's own error, or else the file's.
func report(e env, out *runOutput, spec *benchSpec, runErr error) error {
	printReport(out, spec)
	if err := writeReport(e, out); err != nil && runErr == nil {
		return err
	}
	return runErr
}

func writeReport(e env, out *runOutput) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if e.trace {
		mode = "traced"
	}
	return os.WriteFile(filepath.Join(e.outDir, fmt.Sprintf("report-%s-%s.json", out.Workload, mode)), data, 0o644)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResultLine prints the echoed configuration and then, last, the
// result: every end_to_end metric of BENCHMARK.json untraced, every
// per_layer metric traced.
func printResultLine(out *runOutput, spec *benchSpec, traced bool) {
	cfg, _ := json.Marshal(map[string]any{"config": out.Config})
	fmt.Printf("%s\n", cfg)
	line := resultLine{Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed, Metrics: map[string]metric{}}
	want, have := spec.EndToEnd, out.EndToEnd
	if traced {
		want, have = spec.PerLayer, out.PerLayer
	}
	for _, m := range want {
		v := have[m.Name]
		line.Metrics[m.Name] = metric{Value: v.Value, Unit: m.Unit}
	}
	data, _ := json.Marshal(line)
	fmt.Printf("%s\n", data)
}

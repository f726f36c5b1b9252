package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAgree makes two sets of n runs of every workload, each run its own
// process with its own seed, as the driver does, and compares them the
// driver's way: a metric's spread is the distance between the first and
// third quartile of a set's values as a share of their median, and the
// second set's median may not be worse than the first's by more than
// the metric's bound. It is the source of the bounds in BENCHMARK.json.
func runAgree(spec *benchSpec, n int, seed int64, seconds int, smoke bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	report := map[string]any{}
	for _, w := range workloadNames {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for r := 0; r < n; r++ {
				args := []string{"--workload", w, "--seed", strconv.FormatInt(seed+int64(s*n+r), 10),
					"--seconds", strconv.Itoa(seconds), "--trace", "0"}
				if smoke {
					args = append(args, "-smoke")
				}
				line, err := runSelf(self, args)
				if err != nil {
					return fmt.Errorf("%s set %d run %d: %w", w, s+1, r+1, err)
				}
				if !line.Correct {
					return fmt.Errorf("%s set %d run %d: %d of %d failed", w, s+1, r+1, line.Failed, line.Attempted)
				}
				for name, m := range line.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Printf("\n== %s: two sets of %d runs\n", w, n)
		fmt.Printf("   %-14s %12s %12s %12s %8s %12s %8s %8s %6s\n", "metric", "median1", "q1", "q3", "spread1", "median2", "spread2", "worse", "bound")
		wrep := map[string]any{}
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			m1, m2 := medianF(a), medianF(b)
			q1, q3 := quartiles(a)
			worse := (m2 - m1) / m1
			if m.Better == "higher" {
				worse = (m1 - m2) / m1
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  MEDIANS DISAGREE"
				bad++
			}
			if m.Name != mSetup && (spread(a) > m.Bound || spread(b) > m.Bound) {
				verdict += "  SPREAD OVER BOUND"
				bad++
			}
			fmt.Printf("   %-14s %12.4f %12.4f %12.4f %8.4f %12.4f %8.4f %+8.4f %6.2f%s\n",
				m.Name, m1, q1, q3, spread(a), m2, spread(b), worse, m.Bound, verdict)
			wrep[m.Name] = map[string]any{"set1": a, "set2": b, "median1": m1, "median2": m2,
				"spread1": spread(a), "spread2": spread(b), "worse": worse, "bound": m.Bound}
		}
		report[w] = wrep
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "agree.json"), data, 0o644)
		}
	}
	if err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("agree: %d metric checks outside their bounds", bad)
	}
	return nil
}

// runSelf runs this binary with args and decodes its last output line.
func runSelf(self string, args []string) (resultLine, error) {
	var line resultLine
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return line, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(outBytes))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return line, json.Unmarshal(last, &line)
}

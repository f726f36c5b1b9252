package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

func smokeEnv(t *testing.T, trace bool) env {
	return env{seed: 1, seconds: 1, trace: trace, sc: smokeScale, outDir: t.TempDir()}
}

// TestSmoke runs all four workloads untraced and traced at smoke scale
// and checks the contract with BENCHMARK.json: workload and metric
// names, every oracle passing, and a trace whose spans hang together.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, w.Name, workloadNames[i])
		}
	}
	for _, name := range workloadNames {
		out, err := runWorkload(name, smokeEnv(t, false), spec)
		if err != nil {
			t.Fatalf("%s untraced: %v", name, err)
		}
		if out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("%s untraced: %d of %d failed", name, out.Failed, out.Attempted)
		}
		for _, m := range spec.EndToEnd {
			if v, ok := out.EndToEnd[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", name, m.Name, v, m.Unit)
			}
		}

		e := smokeEnv(t, true)
		out, err = runWorkload(name, e, spec)
		if errors.Is(err, errNegativeLayer) {
			// Timing noise at this scale; the bookkeeping is checked
			// exactly below.
			t.Logf("%s traced: %v", name, err)
		} else if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if out.Failed != 0 {
			t.Errorf("%s traced: %d of %d failed", name, out.Failed, out.Attempted)
		}
		if len(out.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics, BENCHMARK.json lists %d", name, len(out.PerLayer), len(spec.PerLayer))
		}
		for _, m := range spec.PerLayer {
			if v, ok := out.PerLayer[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %s", name, m.Name, v, m.Unit)
			}
		}
		checkTraceFile(t, name, out.TraceFile)
	}
}

// checkTraceFile re-derives the span checks from the file a traced run
// wrote: every parent is an earlier span of the same client and op, no
// span ends before it starts, and the layers' signed self times sum to
// the root spans' durations exactly.
func checkTraceFile(t *testing.T, name, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var doc struct {
		Ops    int              `json:"ops"`
		RootNS int64            `json:"root_ns"`
		SelfNS map[string]int64 `json:"self_ns"`
		Spans  []jsonSpan       `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if doc.Ops == 0 || len(doc.Spans) == 0 {
		t.Fatalf("%s: trace holds %d ops and %d spans", name, doc.Ops, len(doc.Spans))
	}
	type key struct{ client, id int }
	byID := map[key]jsonSpan{}
	for _, sp := range doc.Spans {
		byID[key{sp.Client, sp.ID}] = sp
	}
	for _, sp := range doc.Spans {
		if sp.End < sp.Start {
			t.Errorf("%s: span %s ends before it starts", name, sp.Name)
		}
		if sp.Parent == -1 {
			continue
		}
		parent, ok := byID[key{sp.Client, sp.Parent}]
		if !ok || sp.Parent >= sp.ID || parent.Op != sp.Op {
			t.Errorf("%s: span %d (%s) of client %d has parent %d, which is not an earlier span of its op", name, sp.ID, sp.Name, sp.Client, sp.Parent)
		}
	}
	var sum int64
	for layer, ns := range doc.SelfNS {
		sum += ns
		if ns < 0 {
			t.Logf("%s: layer %s has negative self time %d ns at smoke scale", name, layer, ns)
		}
	}
	if sum != doc.RootNS {
		t.Errorf("%s: layer self times sum to %d ns, the root spans to %d ns", name, sum, doc.RootNS)
	}
}

// With one client nothing reorders, so the counters that are counts of
// the program's work, not times, must repeat exactly.
func TestExactCountersRepeat(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]map[string]metric
	for i := range runs {
		e := smokeEnv(t, true)
		e.clients = 1
		out, err := runWorkload(wlMixed, e, spec)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = out.PerLayer
	}
	for _, name := range []string{"wire.bytes_per_op", "store.wal_bytes_per_tx", "view.pairs_checked_per_tx",
		"store.wal_writes_per_tx", "store.fsyncs_per_tx", "view.publishes_per_tx"} {
		a, b := runs[0][name].Value, runs[1][name].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v, want the same non-zero count", name, a, b)
		}
	}
}

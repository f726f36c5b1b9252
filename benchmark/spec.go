package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The four workloads. Later issues cite these names.
const (
	wlPointRead = "wire-point-read"
	wlScanRead  = "scan-read"
	wlMixed     = "wire-mixed-durable"
	wlFederate  = "federate-attach"
)

var workloadNames = []string{wlPointRead, wlScanRead, wlMixed, wlFederate}

// The gated end-to-end metrics. The driver's contract wants every one
// of them from every workload, so the two latency metrics are named by
// role, not by operation: each workload has a cheap and an expensive
// op class by design (README.md gives the mapping to read_p50_us,
// write_p50_us, integrate_p50_ms and attach_p50_ms).
const (
	mSetup    = "setup_s"
	mOps      = "ops_per_s"
	mLightP50 = "light_p50_us"
	mHeavyP50 = "heavy_p50_us"
)

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the repository root: the parent of
// the benchmark directory, whichever of the two the process runs in.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{"..", "."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, firstErr
}

func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

// scale fixes extents and op counts. Op counts are per second of
// --seconds and were calibrated once on the seed commit (2 cores) so a
// timed phase lasts about --seconds there; they are counts, never
// durations, so parent and change execute the identical script.
type scale struct {
	Name string `json:"name"`
	// Setups is how many times set-up runs; setup_s is their median.
	Setups int `json:"setups"`
	// LoadBatch is the Tx batch size of the bulk load.
	LoadBatch int `json:"load_batch"`
	// PointItems / MixedItems are the loaded extents of the two wire
	// workloads; HotSet is their prepared-statement count.
	PointItems int `json:"point_items"`
	MixedItems int `json:"mixed_items"`
	HotSet     int `json:"hot_set"`
	// ScanBooks is the local and the remote book count of scan-read.
	ScanBooks int `json:"scan_books"`
	// FedScale is fixture.Options.Scale of federate-attach.
	FedScale int `json:"fed_scale"`
	// Recoveries is how many crash-image boots recovery_ms is the
	// median of.
	Recoveries int `json:"recoveries"`
	// OpsPerSecond is the frozen script length per second of --seconds,
	// over all clients.
	OpsPerSecond map[string]int `json:"ops_per_second"`
}

var fullScale = scale{
	Name:       "full",
	Setups:     3,
	LoadBatch:  250,
	PointItems: 4000,
	MixedItems: 4000,
	HotSet:     64,
	ScanBooks:  4000,
	FedScale:   1000,
	Recoveries: 10,
	OpsPerSecond: map[string]int{
		wlPointRead: 40000,
		wlScanRead:  900,
		wlMixed:     1400,
		wlFederate:  5,
	},
}

// smokeScale runs all four workloads in well under two seconds; the
// tests use it. Its numbers mean nothing.
var smokeScale = scale{
	Name:       "smoke",
	Setups:     1,
	LoadBatch:  50,
	PointItems: 200,
	MixedItems: 150,
	HotSet:     16,
	ScanBooks:  150,
	FedScale:   5,
	Recoveries: 2,
	OpsPerSecond: map[string]int{
		wlPointRead: 400,
		wlScanRead:  120,
		wlMixed:     160,
		wlFederate:  2,
	},
}

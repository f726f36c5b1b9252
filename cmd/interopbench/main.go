// Command interopbench runs the full reproduction suite: the E1–E11
// scenario reproductions (every worked example and figure of the paper)
// and the B1–B9 measurements (query optimisation, transaction validation,
// scale sweeps, derivation cost, baseline comparison, conflict
// detection, indexed query serving, mutation throughput, concurrent
// lock-free serving). Its output is the source of EXPERIMENTS.md. The
// scale and derivation sweeps (B3, B4) measure sequential vs parallel
// pipeline execution and report the reasoner's cache hit rate; B7
// measures the indexed+compiled serving fast path against the pure
// interpreter scan; B8 measures one N-element Ship batch against N
// singleton batches and delta-restricted update validation against a
// full CheckAll; B1 reports cold (planning + cost-gated constraint phase)
// against steady-state (plan-cached) serving; B9 measures concurrent
// readers against the snapshot path under a mutating writer, with the
// plan-cache hit rate; B10 measures incremental attach against full
// re-integration; B11 drives the same mixed workload through
// interopd's HTTP surface and reports the wire overhead against the
// in-process engine; B12 measures serving under injected member faults
// and the reconvergence cost after an outage; B13 measures the
// durability bill (write-ahead logging per routed commit, with and
// without fsync) and the warm-start payoff (cold vs recovered boot to
// plan-hit serving).
//
// Usage:
//
//	interopbench                  # everything
//	interopbench -only E          # scenario reproductions only
//	interopbench -only B          # measurements only
//	interopbench -only b11 -serve-url http://localhost:7070
//	                              # drive a running interopd
//	interopbench -quick           # smaller B-series sweeps
//	interopbench -json BENCH.json # also write machine-readable results
//	interopbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                              # pprof output (see `make profile`)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"interopdb/internal/experiments"
	"interopdb/internal/server"
)

// report is the machine-readable result file (-json): one baseline per
// PR, diffable across the repo's history.
type report struct {
	GoMaxProcs int                   `json:"gomaxprocs"`
	Quick      bool                  `json:"quick"`
	EResults   []eResult             `json:"e_results,omitempty"`
	B1         []experiments.B1Row   `json:"b1,omitempty"`
	B2         []experiments.B2Row   `json:"b2,omitempty"`
	B3         []b3JSON              `json:"b3,omitempty"`
	B4         []b4JSON              `json:"b4,omitempty"`
	B5         *experiments.B5Result `json:"b5,omitempty"`
	B6         []experiments.B6Row   `json:"b6,omitempty"`
	B7         []b7JSON              `json:"b7,omitempty"`
	B8         []b8JSON              `json:"b8,omitempty"`
	B9         []b9JSON              `json:"b9,omitempty"`
	B9V        []b9vJSON             `json:"b9v,omitempty"`
	B10        []b10JSON             `json:"b10,omitempty"`
	B11        []b11JSON             `json:"b11,omitempty"`
	B12        []b12JSON             `json:"b12,omitempty"`
	B13        []b13JSON             `json:"b13,omitempty"`
}

type eResult struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Passed bool   `json:"passed"`
}

// b3JSON flattens B3Row with derived metrics for trend tracking.
type b3JSON struct {
	Books        int     `json:"books"`
	Overlap      float64 `json:"overlap"`
	Objects      int     `json:"objects"`
	Merged       int     `json:"merged"`
	SeqNanos     int64   `json:"seq_ns"`
	ParNanos     int64   `json:"par_ns"`
	Speedup      float64 `json:"speedup"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// b7JSON flattens B7Row for trend tracking across baselines.
type b7JSON struct {
	Scale     int     `json:"scale"`
	Extent    int     `json:"extent"`
	Kind      string  `json:"kind"`
	Detail    string  `json:"detail"`
	ScanNanos int64   `json:"scan_ns"`
	FastNanos int64   `json:"fast_ns"`
	Speedup   float64 `json:"speedup"`
	Rows      int     `json:"rows"`
	Scanned   int     `json:"scanned"`
	IndexHits int     `json:"index_hits"`
}

// b8JSON flattens B8Row for trend tracking across baselines.
type b8JSON struct {
	Scale      int     `json:"scale"`
	Mode       string  `json:"mode"`
	Ops        int     `json:"ops"`
	TotalNanos int64   `json:"total_ns"`
	PerOpNanos int64   `json:"per_op_ns"`
	Throughput float64 `json:"throughput_ops_per_s"`
	DeltaPairs int     `json:"delta_pairs,omitempty"`
	FullPairs  int     `json:"full_pairs,omitempty"`
}

// b9JSON flattens B9Row for trend tracking across baselines.
type b9JSON struct {
	Readers       int     `json:"readers"`
	Ops           int     `json:"ops"`
	TotalNanos    int64   `json:"total_ns"`
	PerOpNanos    int64   `json:"per_op_ns"`
	Throughput    float64 `json:"throughput_qps"`
	Mutations     int     `json:"mutations"`
	PlanHitRate   float64 `json:"plan_hit_rate"`
	SolverQueries int64   `json:"solver_queries"`
}

// b9vJSON flattens B9VRow for trend tracking across baselines.
type b9vJSON struct {
	Readers          int     `json:"readers"`
	Ops              int     `json:"ops"`
	TotalNanos       int64   `json:"total_ns"`
	PerOpNanos       int64   `json:"per_op_ns"`
	Throughput       float64 `json:"throughput_qps"`
	Mutations        int     `json:"mutations"`
	WriteIntervalNs  int64   `json:"write_interval_ns"`
	PlanHitRate      float64 `json:"plan_hit_rate"`
	MaxChainVersions int     `json:"max_chain_versions"`
	MaxLag           uint64  `json:"max_lag"`
	Coalesced        int64   `json:"coalesced"`
	Truncated        int64   `json:"truncated"`
}

// b10JSON flattens B10Row for trend tracking across baselines.
type b10JSON struct {
	Scale           int     `json:"scale"`
	AttachNanos     int64   `json:"attach_ns"`
	ReintegrateNans int64   `json:"reintegrate_ns"`
	Speedup         float64 `json:"speedup"`
	PlanSurvival    float64 `json:"plan_survival"`
	AttachSolver    int64   `json:"attach_solver"`
	FullSolver      int64   `json:"full_solver"`
	Publishes       int64   `json:"publishes"`
}

// b11JSON flattens server.LoadResult for trend tracking across
// baselines: wire serving (HTTP + JSON codec) against the in-process
// engine on the same workload.
type b11JSON struct {
	Transport    string  `json:"transport"`
	Readers      int     `json:"readers"`
	Ops          int     `json:"ops"`
	WireQPS      float64 `json:"wire_qps"`
	WirePerOp    int64   `json:"wire_per_op_ns"`
	P50          int64   `json:"p50_ns"`
	P95          int64   `json:"p95_ns"`
	P99          int64   `json:"p99_ns"`
	Mutations    int64   `json:"mutations"`
	InprocPerOp  int64   `json:"inproc_per_op_ns"`
	WireOverhead float64 `json:"wire_overhead_x"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
}

// b12JSON flattens B12Result for trend tracking across baselines:
// serving under injected member faults, degraded-mode behaviour during
// an outage, and the reconvergence cost after healing.
type b12JSON struct {
	Scale           int     `json:"scale"`
	Batches         int     `json:"batches"`
	Rate            float64 `json:"rate"`
	Injected        int     `json:"injected"`
	Retries         int64   `json:"retries"`
	ClientErrors    int     `json:"client_errors"`
	PartialSurfaced int     `json:"partial_surfaced"`
	FaultyNanos     int64   `json:"faulty_ns"`
	FaultFreeNanos  int64   `json:"fault_free_ns"`
	OverheadX       float64 `json:"overhead_x"`
	DegradedReads   int     `json:"degraded_reads"`
	WriteFastFails  int     `json:"write_fast_fails"`
	ReconvergeNanos int64   `json:"reconverge_ns"`
	Completed       int     `json:"completed"`
}

// b13JSON flattens B13Result for trend tracking across baselines: the
// write-side durability bill (bare vs WAL vs WAL+fsync shipping) and
// the boot-side payoff (cold vs warm recovery to plan-hit serving).
type b13JSON struct {
	Scale             int     `json:"scale"`
	Batches           int     `json:"batches"`
	ShipBareNanos     int64   `json:"ship_bare_ns"`
	ShipWALNanos      int64   `json:"ship_wal_ns"`
	ShipWALSyncNanos  int64   `json:"ship_wal_sync_ns"`
	WALOverheadX      float64 `json:"wal_overhead_x"`
	WALSyncOverheadX  float64 `json:"wal_sync_overhead_x"`
	ColdBootNanos     int64   `json:"cold_boot_ns"`
	WarmBootNanos     int64   `json:"warm_boot_ns"`
	BootSpeedup       float64 `json:"boot_speedup"`
	ReplayedCommits   int     `json:"replayed_commits"`
	MemoEntries       int     `json:"memo_entries"`
	PlansWarmed       int     `json:"plans_warmed"`
	WarmPlanHits      int64   `json:"warm_plan_hits"`
	WarmSolverQueries int64   `json:"warm_solver_queries"`
}

type b4JSON struct {
	Constraints  int     `json:"constraints"`
	Derived      int     `json:"derived"`
	SeqNanos     int64   `json:"seq_ns"`
	ParNanos     int64   `json:"par_ns"`
	Speedup      float64 `json:"speedup"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

func main() {
	only := flag.String("only", "", "run only E or B series, or just b11 (wire serving)")
	quick := flag.Bool("quick", false, "smaller measurement sweeps")
	serveURL := flag.String("serve-url", "", "B11: drive a running interopd at this base URL instead of self-hosting")
	serveWire := flag.String("wire-addr", "", "B11: the same daemon's binary-transport address (interopd -wire-addr); with -serve-url, empty skips the binary arm")
	transport := flag.String("transport", "", "B11: limit to one transport (http or binary); empty runs both")
	jsonPath := flag.String("json", "", "write machine-readable results to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		// Flushed explicitly on every exit path: os.Exit skips defers,
		// and a truncated profile is most painful exactly when a run
		// fails. StopCPUProfile is a no-op once profiling is stopped.
		defer pprof.StopCPUProfile()
	}

	rep := report{GoMaxProcs: runtime.GOMAXPROCS(0), Quick: *quick}
	failed := false
	if *only == "" || strings.EqualFold(*only, "E") {
		fmt.Println("==================== E-series: scenario reproductions ====================")
		results, err := experiments.All()
		exitOn(err)
		for _, r := range results {
			fmt.Print(r)
			if !r.Passed() {
				failed = true
			}
			rep.EResults = append(rep.EResults, eResult{ID: r.ID, Title: r.Title, Passed: r.Passed()})
		}
	}

	if *only == "" || strings.EqualFold(*only, "B") {
		fmt.Println("==================== B-series: measurements ====================")
		runB(*quick, &rep)
	}
	if *only == "" || strings.EqualFold(*only, "B") || strings.EqualFold(*only, "b11") {
		runB11(*quick, *serveURL, *serveWire, *transport, &rep)
	}
	if *only == "" || strings.EqualFold(*only, "B") || strings.EqualFold(*only, "b12") {
		runB12(*quick, &rep)
	}
	if *only == "" || strings.EqualFold(*only, "B") || strings.EqualFold(*only, "b13") {
		runB13(*quick, &rep)
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*jsonPath, append(buf, '\n'), 0o644))
		fmt.Printf("\nwrote %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		exitOn(err)
		runtime.GC()
		exitOn(pprof.WriteHeapProfile(f))
		exitOn(f.Close())
	}
	if failed {
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}

func runB(quick bool, rep *report) {
	books := 2000
	sizes := []int{1000, 5000, 20000}
	counts := []int{4, 16, 64, 256}
	if quick {
		books = 500
		sizes = []int{500, 2000}
		counts = []int{4, 16, 64}
	}

	fmt.Printf("\nB1: query optimisation (%d+%d books; cold = planning, steady = plan-cached)\n", books, books)
	rows, err := experiments.B1(books)
	exitOn(err)
	for _, r := range rows {
		speedup := "-"
		if r.OptScanned < r.BaseScanned {
			speedup = fmt.Sprintf("%.0fx fewer objects", float64(r.BaseScanned)/float64(max(1, r.OptScanned)))
		}
		fmt.Printf("  %-62s cold opt %10v / base %10v | steady opt %8v / base %8v | pruned=%-5v gated=%-5v %s\n",
			r.Query, r.OptColdTime, r.BaseColdTime, r.OptTime, r.BaseTime, r.Pruned, r.Gated, speedup)
	}
	rep.B1 = rows

	fmt.Println("\nB2: transaction validation (rejected before shipping)")
	b2, err := experiments.B2(200, []float64{0, 0.25, 0.5, 0.75})
	exitOn(err)
	for _, r := range b2 {
		fmt.Printf("  violation rate %.2f: %3d/%3d rejected early, %d reached the local manager and were rejected there\n",
			r.ViolationRate, r.RejectedEarly, r.Attempts, r.LocalRejects)
	}
	rep.B2 = b2

	fmt.Println("\nB3: integration scale sweep (sequential vs parallel pipeline)")
	b3, err := experiments.B3(sizes, []float64{0.1, 0.5, 0.9})
	exitOn(err)
	for _, r := range b3 {
		fmt.Printf("  books=%6d overlap=%.1f: %6d global objects (%6d merged) seq %10v | par %10v | %.2fx | cache %4.1f%%\n",
			r.Books, r.Overlap, r.Objects, r.Merged, r.Duration, r.DurationPar, r.Speedup(), 100*r.CacheHitRate)
		rep.B3 = append(rep.B3, b3JSON{
			Books: r.Books, Overlap: r.Overlap, Objects: r.Objects, Merged: r.Merged,
			SeqNanos: r.Duration.Nanoseconds(), ParNanos: r.DurationPar.Nanoseconds(),
			Speedup: r.Speedup(), CacheHitRate: r.CacheHitRate,
		})
	}

	fmt.Println("\nB4: derivation cost vs constraint count (sequential vs parallel)")
	b4, err := experiments.B4(counts)
	exitOn(err)
	for _, r := range b4 {
		fmt.Printf("  %4d component constraints → %4d derived global constraints seq %10v | par %10v | %.2fx | cache %4.1f%%\n",
			r.Constraints, r.Derived, r.Duration, r.DurationPar, r.Speedup(), 100*r.CacheHitRate)
		rep.B4 = append(rep.B4, b4JSON{
			Constraints: r.Constraints, Derived: r.Derived,
			SeqNanos: r.Duration.Nanoseconds(), ParNanos: r.DurationPar.Nanoseconds(),
			Speedup: r.Speedup(), CacheHitRate: r.CacheHitRate,
		})
	}

	fmt.Println("\nB5: baseline comparison")
	b5, err := experiments.B5()
	exitOn(err)
	fmt.Printf("  class-based [BLN86-style] classification: precision %.2f, recall %.2f (instance-based = 1.00/1.00 by construction)\n",
		b5.ClassBasedPrecision, b5.ClassBasedRecall)
	fmt.Printf("  union-all [AQF95/RPG95-style] constraints: %d/%d valid merged states falsely rejected (derived constraints: 0)\n",
		b5.UnionAllFalseRej, b5.UnionAllTotal)
	rep.B5 = &b5

	fmt.Println("\nB6: conflict detection under injected weakenings")
	b6, err := experiments.B6()
	exitOn(err)
	for _, r := range b6 {
		fmt.Printf("  %d weakened constraints → %2d conflicts, %2d repair suggestions\n",
			r.WeakenedConstraints, r.Conflicts, r.Suggestions)
	}
	rep.B6 = b6

	scales := []int{1, 10, 50}
	serveIters := 200
	if quick {
		scales = []int{1, 10}
		serveIters = 50
	}
	fmt.Println("\nB7: indexed query serving vs pure scan (scaled Figure 1 fixture)")
	b7, err := experiments.B7(scales, serveIters)
	exitOn(err)
	for _, r := range b7 {
		fmt.Printf("  scale=%3d extent=%4d %-15s %-40s scan %10v | indexed %10v | %6.1fx | rows=%d scanned=%d hits=%d\n",
			r.Scale, r.Extent, r.Kind, r.Detail, r.ScanTime, r.FastTime, r.Speedup(), r.Rows, r.Scanned, r.IndexHits)
		rep.B7 = append(rep.B7, b7JSON{
			Scale: r.Scale, Extent: r.Extent, Kind: r.Kind, Detail: r.Detail,
			ScanNanos: r.ScanTime.Nanoseconds(), FastNanos: r.FastTime.Nanoseconds(),
			Speedup: r.Speedup(), Rows: r.Rows, Scanned: r.Scanned, IndexHits: r.IndexHits,
		})
	}

	batch := 100
	if quick {
		batch = 50
	}
	fmt.Printf("\nB8: mutation throughput — one Ship batch vs singleton Ship batches, delta vs full validation (%d ops)\n", batch)
	b8, err := experiments.B8(scales, batch)
	exitOn(err)
	for _, r := range b8 {
		extra := ""
		if r.Mode == "validate-delta" || r.Mode == "validate-full" {
			extra = fmt.Sprintf(" | pairs delta=%d full=%d", r.DeltaPairs, r.FullPairs)
		}
		fmt.Printf("  scale=%3d %-18s ops=%4d total %12v | per-op %12v | %9.0f ops/s%s\n",
			r.Scale, r.Mode, r.Ops, r.Total, r.PerOp, r.Throughput(), extra)
		rep.B8 = append(rep.B8, b8JSON{
			Scale: r.Scale, Mode: r.Mode, Ops: r.Ops,
			TotalNanos: r.Total.Nanoseconds(), PerOpNanos: r.PerOp.Nanoseconds(),
			Throughput: r.Throughput(), DeltaPairs: r.DeltaPairs, FullPairs: r.FullPairs,
		})
	}

	b9Scale, b9Ops := 50, 2000
	if quick {
		b9Scale, b9Ops = 10, 500
	}
	readerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		readerCounts = append(readerCounts, n)
	}
	fmt.Printf("\nB9: concurrent lock-free serving (scale %d, %d queries/reader, writer shipping batches)\n", b9Scale, b9Ops)
	for _, readers := range readerCounts {
		r, err := experiments.B9(b9Scale, readers, b9Ops)
		exitOn(err)
		fmt.Printf("  readers=%2d ops=%6d wall %12v | per-query %8v | %9.0f q/s | %4d mutation batches | plan-hit %5.1f%% | solver %d\n",
			r.Readers, r.Ops, r.Total, r.PerOp, r.Throughput(), r.Mutations, 100*r.PlanHitRate, r.SolverQueries)
		rep.B9 = append(rep.B9, b9JSON{
			Readers: r.Readers, Ops: r.Ops,
			TotalNanos: r.Total.Nanoseconds(), PerOpNanos: r.PerOp.Nanoseconds(),
			Throughput: r.Throughput(), Mutations: r.Mutations,
			PlanHitRate: r.PlanHitRate, SolverQueries: r.SolverQueries,
		})
	}

	// B9v: reader scaling at a FIXED write rate over the multi-version
	// ring. Unlike B9's free-running writer, the write pressure here is
	// identical at every reader count, so per-query cost across 1/2/4/8
	// readers isolates reader-side scaling; the ring-health high-water
	// marks show reclamation keeping up under the same churn. On this
	// single-core CI host wall-clock scaling is reported, not gated
	// (the PR 1 precedent) — the correctness half is asserted inline.
	b9vOps, b9vInterval := 2000, 2*time.Millisecond
	if quick {
		b9vOps = 500
	}
	fmt.Printf("\nB9v: reader scaling at a fixed write rate (scale %d, %d queries/reader, one insert per %v)\n",
		b9Scale, b9vOps, b9vInterval)
	for _, readers := range []int{1, 2, 4, 8} {
		r, err := experiments.B9V(b9Scale, readers, b9vOps, b9vInterval)
		exitOn(err)
		fmt.Printf("  readers=%2d ops=%6d wall %12v | per-query %8v | %9.0f q/s | %4d writes | plan-hit %5.1f%% | chain hwm %d | lag hwm %d\n",
			r.Readers, r.Ops, r.Total, r.PerOp, r.Throughput(), r.Mutations, 100*r.PlanHitRate, r.MaxChainVersions, r.MaxLag)
		rep.B9V = append(rep.B9V, b9vJSON{
			Readers: r.Readers, Ops: r.Ops,
			TotalNanos: r.Total.Nanoseconds(), PerOpNanos: r.PerOp.Nanoseconds(),
			Throughput: r.Throughput(), Mutations: r.Mutations,
			WriteIntervalNs:  r.WriteInterval.Nanoseconds(),
			PlanHitRate:      r.PlanHitRate,
			MaxChainVersions: r.MaxChainVersions, MaxLag: r.MaxLag,
			Coalesced: r.Coalesced, Truncated: r.Truncated,
		})
	}

	b10Scales := []int{1, 10, 50}
	if quick {
		b10Scales = []int{1, 10}
	}
	fmt.Println("\nB10: federation membership change — incremental attach vs full re-integration")
	b10, err := experiments.B10(b10Scales)
	exitOn(err)
	for _, r := range b10 {
		fmt.Printf("  scale=%3d attach %12v | re-integrate %12v | %5.1fx | plan survival %5.1f%% | solver %d vs %d | publishes %d\n",
			r.Scale, r.Attach, r.Reintegrate, r.Speedup(), 100*r.PlanSurvival, r.AttachSolver, r.FullSolver, r.Publishes)
		rep.B10 = append(rep.B10, b10JSON{
			Scale: r.Scale, AttachNanos: r.Attach.Nanoseconds(), ReintegrateNans: r.Reintegrate.Nanoseconds(),
			Speedup: r.Speedup(), PlanSurvival: r.PlanSurvival,
			AttachSolver: r.AttachSolver, FullSolver: r.FullSolver, Publishes: r.Publishes,
		})
	}
}

// runB11 measures serving the federation over the wire: the B9 query
// mix driven through interopd's transports (self-hosted on loopback
// unless -serve-url points at a running daemon), reported next to the
// same workload on an in-process engine. The gap is the transport bill;
// the binary arm (framed protocol + prepared queries) shows how much of
// the HTTP/JSON bill is codec rather than network.
func runB11(quick bool, serveURL, wireAddr, only string, rep *report) {
	ops := 200
	if quick {
		ops = 50
	}
	readerCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 && !quick {
		readerCounts = append(readerCounts, n)
	}
	transports := []string{"http", "binary"}
	if only != "" {
		transports = []string{only}
	}
	if serveURL != "" && wireAddr == "" {
		// A remote daemon without -wire-addr can only serve HTTP.
		transports = []string{"http"}
	}
	target := "self-hosted loopback"
	if serveURL != "" {
		target = serveURL
	}
	fmt.Printf("\nB11: wire serving, HTTP/JSON vs binary framed (%s; %d queries/reader, writer shipping inserts)\n", target, ops)
	for _, tr := range transports {
		for _, readers := range readerCounts {
			r, err := server.RunLoad(server.LoadOptions{
				BaseURL:      serveURL,
				WireAddr:     wireAddr,
				Transport:    tr,
				Readers:      readers,
				OpsPerReader: ops,
			})
			exitOn(err)
			fmt.Printf("  %-6s readers=%2d ops=%6d %9.0f q/s | per-op %10v (in-proc %10v, %5.1fx) | p50 %8v p95 %8v p99 %8v | %5.0f allocs/op | %d mutations\n",
				r.Transport, r.Readers, r.Ops, r.WireQPS, r.WirePerOp, r.InprocPerOp, r.WireOverhead, r.P50, r.P95, r.P99, r.AllocsPerOp, r.Mutations)
			rep.B11 = append(rep.B11, b11JSON{
				Transport: r.Transport,
				Readers:   r.Readers, Ops: r.Ops, WireQPS: r.WireQPS,
				WirePerOp: r.WirePerOp.Nanoseconds(),
				P50:       r.P50.Nanoseconds(), P95: r.P95.Nanoseconds(), P99: r.P99.Nanoseconds(),
				Mutations: r.Mutations, InprocPerOp: r.InprocPerOp.Nanoseconds(),
				WireOverhead: r.WireOverhead,
				AllocsPerOp:  r.AllocsPerOp,
			})
		}
	}
}

// runB12 measures fault-tolerant serving: cross-member batches under a
// seeded transient-fault rate on one member (the retry layer must
// absorb every fault — zero partial commits reach callers), then a
// forced outage with degraded serving, then the reconcile pass that
// completes the stranded batch once the member heals.
func runB12(quick bool, rep *report) {
	scales := []int{1, 10, 50}
	batches := 200
	if quick {
		scales = []int{1, 10}
		batches = 50
	}
	const rate = 0.05
	fmt.Printf("\nB12: serving under member faults (%d cross-member batches, %.0f%% transient commit-fault rate)\n", batches, 100*rate)
	for _, scale := range scales {
		r, err := experiments.B12(scale, batches, rate)
		exitOn(err)
		fmt.Printf("  scale=%3d injected=%3d retries=%3d surfaced partials=%d | faulted %12v vs clean %12v (%.2fx) | outage: %d reads served, %d writes fast-failed | reconverge %10v (%d completed)\n",
			r.Scale, r.Injected, r.Retries, r.PartialSurfaced, r.FaultyTotal, r.FaultFreeTotal, r.Overhead(),
			r.DegradedReads, r.WriteFastFails, r.Reconverge, r.Completed)
		rep.B12 = append(rep.B12, b12JSON{
			Scale: r.Scale, Batches: r.Batches, Rate: r.Rate,
			Injected: r.Injected, Retries: r.Retries,
			ClientErrors: r.ClientErrors, PartialSurfaced: r.PartialSurfaced,
			FaultyNanos: r.FaultyTotal.Nanoseconds(), FaultFreeNanos: r.FaultFreeTotal.Nanoseconds(),
			OverheadX:     r.Overhead(),
			DegradedReads: r.DegradedReads, WriteFastFails: r.WriteFastFails,
			ReconvergeNanos: r.Reconverge.Nanoseconds(), Completed: r.Completed,
		})
	}
}

// runB13 measures durability: the same routed workload shipped bare,
// WAL-logged, and WAL-logged with an fsync per commit, then a crash of
// the synced node and the cold-vs-warm boot race back to plan-hit
// serving.
func runB13(quick bool, rep *report) {
	scales := []int{1, 10, 50}
	batches := 200
	if quick {
		scales = []int{1, 10}
		batches = 50
	}
	fmt.Printf("\nB13: durability — WAL ship overhead and warm-start recovery (%d cross-member batches)\n", batches)
	for _, scale := range scales {
		r, err := experiments.B13(scale, batches)
		exitOn(err)
		fmt.Printf("  scale=%3d ship: bare %12v | wal %12v (%.2fx) | wal+fsync %12v (%.2fx) | boot: cold %12v vs warm %12v (%.2fx, %d commits replayed, %d memo, %d plans, %d solver queries)\n",
			r.Scale, r.ShipBare, r.ShipWALNoSync, r.WALOverheadNoSync(), r.ShipWALSync, r.WALOverheadSync(),
			r.ColdBoot, r.WarmBoot, r.BootSpeedup(), r.ReplayedCommits, r.MemoEntries, r.PlansWarmed, r.WarmSolverQueries)
		rep.B13 = append(rep.B13, b13JSON{
			Scale: r.Scale, Batches: r.Batches,
			ShipBareNanos: r.ShipBare.Nanoseconds(), ShipWALNanos: r.ShipWALNoSync.Nanoseconds(),
			ShipWALSyncNanos: r.ShipWALSync.Nanoseconds(),
			WALOverheadX:     r.WALOverheadNoSync(), WALSyncOverheadX: r.WALOverheadSync(),
			ColdBootNanos: r.ColdBoot.Nanoseconds(), WarmBootNanos: r.WarmBoot.Nanoseconds(),
			BootSpeedup:     r.BootSpeedup(),
			ReplayedCommits: r.ReplayedCommits, MemoEntries: r.MemoEntries, PlansWarmed: r.PlansWarmed,
			WarmPlanHits: r.WarmPlanHits, WarmSolverQueries: r.WarmSolverQueries,
		})
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func exitOn(err error) {
	if err != nil {
		pprof.StopCPUProfile() // flush a partial CPU profile, if any
		fmt.Fprintln(os.Stderr, "interopbench:", err)
		os.Exit(1)
	}
}

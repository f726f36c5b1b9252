package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// env is one invocation's settings.
type env struct {
	seed    int64
	seconds int
	trace   bool
	sc      scale
	outDir  string
	// clients overrides the client count; tests pin it to 1, where the
	// exact counters repeat.
	clients int
}

// clientCount is the closed-loop client count: the reference box's two
// cores, frozen so the load shape does not follow the machine, and
// never more than the machine has.
func (e env) clientCount() int {
	if e.clients > 0 {
		return e.clients
	}
	return min(2, runtime.NumCPU())
}

// runOutput is one workload run's report.
type runOutput struct {
	Workload  string            `json:"workload"`
	Config    map[string]any    `json:"config"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
}

// driver is what a workload hands the closed-loop runner: per-client
// scripts of a fixed length and the execution of one scripted op.
type driver interface {
	clients() int
	ops(client int) int
	// do executes op i of client c, appends its latency samples to out
	// and reports whether it was answered correctly. tr is nil on an
	// untraced segment.
	do(c, i int, tr *tracer, out *[]sample) bool
	// flush runs between segments, with no client active.
	flush() error
}

// phase is what the segments of one kind (untraced or traced) add up to.
type phase struct {
	ops     int
	failed  int
	rates   []float64 // completed ops per second of wall clock, per segment
	samples []sample
	mallocs uint64
}

// opsPerSecond is the median of the segments' rates: one stall — a
// collection, a neighbour on the host — slows one segment, not the
// run's figure.
func (p phase) opsPerSecond() float64 { return medianF(p.rates) }

// segments is how many equal pieces a run cuts every script into, with
// all clients joined in between. A traced run traces every other piece,
// so traced and untraced pieces see the same extents as writes grow
// them; the end-to-end numbers of a traced run come from its untraced
// pieces and serve trace.overhead_ratio and the tails only.
const segments = 10

// runScripts executes every client's script in a closed loop.
func runScripts(d driver, traced bool) (untraced, tracedPhase phase, tracers []*tracer, err error) {
	nc := d.clients()
	segs := segments
	for c := 0; c < nc; c++ {
		if n := d.ops(c); n < segs {
			segs = n - n%2
		}
	}
	if segs < 2 {
		return untraced, tracedPhase, nil, fmt.Errorf("a script has fewer than 2 ops")
	}
	epoch := time.Now()
	if traced {
		for c := 0; c < nc; c++ {
			tracers = append(tracers, newTracer(c, epoch, d.ops(c)*2))
		}
	}
	perClient := make([][]sample, nc)
	for c := range perClient {
		perClient[c] = make([]sample, 0, d.ops(c)+16)
	}
	for s := 0; s < segs; s++ {
		segTraced := traced && s%2 == 1
		failed := make([]int, nc)
		marks := make([]int, nc)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < nc; c++ {
			n := d.ops(c)
			lo, hi := s*n/segs, (s+1)*n/segs
			marks[c] = len(perClient[c])
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				var tr *tracer
				if segTraced {
					tr = tracers[c]
				}
				for i := lo; i < hi; i++ {
					if !d.do(c, i, tr, &perClient[c]) {
						failed[c]++
					}
				}
			}(c, lo, hi)
		}
		wg.Wait()
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		ph := &untraced
		if segTraced {
			ph = &tracedPhase
		}
		ph.mallocs += after.Mallocs - before.Mallocs
		segOps := 0
		for c := 0; c < nc; c++ {
			n := d.ops(c)
			segOps += (s+1)*n/segs - s*n/segs
			ph.failed += failed[c]
			ph.samples = append(ph.samples, perClient[c][marks[c]:]...)
		}
		ph.ops += segOps
		ph.rates = append(ph.rates, float64(segOps)/wall.Seconds())
		if err := d.flush(); err != nil {
			return untraced, tracedPhase, tracers, err
		}
	}
	return untraced, tracedPhase, tracers, nil
}

// timeSetups runs setup n times and keeps the last system; the others
// are closed at once. setup_s is the median of the n durations.
func timeSetups[T any](n int, setup func() (T, error), closeFn func(T)) (T, []time.Duration, error) {
	var zero, sys T
	var took []time.Duration
	for i := 0; i < n; i++ {
		if i > 0 {
			closeFn(sys)
		}
		start := time.Now()
		s, err := setup()
		if err != nil {
			return zero, nil, err
		}
		took = append(took, time.Since(start))
		sys = s
	}
	return sys, took, nil
}

func us(ns float64) float64 { return ns / 1e3 }

// endToEnd assembles the gated metrics and the unbounded ones reported
// beside them (the issue's operation-named aliases and the tails).
func endToEnd(setups []time.Duration, ph phase) map[string]metric {
	var ss []float64
	for _, d := range setups {
		ss = append(ss, d.Seconds())
	}
	out := map[string]metric{
		mSetup: {Value: medianF(ss), Unit: "s", Samples: len(ss)},
		mOps:   {Value: ph.opsPerSecond(), Unit: "1/s", Samples: ph.ops},
	}
	light, heavy := pick(ph.samples, tagLight), pick(ph.samples, tagHeavy)
	out[mLightP50] = metric{Value: us(median(light)), Unit: "us", Samples: len(light)}
	out[mHeavyP50] = metric{Value: us(median(heavy)), Unit: "us", Samples: len(heavy)}
	for _, a := range []struct {
		name string
		tag  uint8
	}{{"read", tagRead}, {"write", tagWrite}} {
		s := pick(ph.samples, a.tag)
		if len(s) == 0 {
			continue
		}
		out[a.name+"_p50_us"] = metric{Value: us(median(s)), Unit: "us", Samples: len(s)}
		if v, p := tail(s); p > 0 {
			out[fmt.Sprintf("%s_p%g_us", a.name, p)] = metric{Value: us(v), Unit: "us", Samples: len(s)}
		}
	}
	return out
}

// baseConfig is the part of the echoed configuration every workload
// shares.
func baseConfig(e env, hash string, clients, ops int) map[string]any {
	return map[string]any{
		"seed":        e.seed,
		"seconds":     e.seconds,
		"scale":       e.sc,
		"script_hash": hash,
		"script_ops":  ops,
		"clients":     clients,
		"load":        "closed loop, one generator process, in-process server on 127.0.0.1:0",
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"traced":      e.trace,
	}
}

// layerMetrics starts a per-layer map holding every name BENCHMARK.json
// lists, at 0: a layer a workload idles reports 0, which is a finding
// ("store does nothing on scan-read"), not an omission.
func layerMetrics(spec *benchSpec) map[string]metric {
	out := map[string]metric{}
	for _, m := range spec.PerLayer {
		out[m.Name] = metric{Unit: m.Unit}
	}
	return out
}

func setLayer(m map[string]metric, name string, value float64, samples int) {
	cur, ok := m[name]
	if !ok {
		panic("per-layer metric not declared in BENCHMARK.json: " + name)
	}
	cur.Value, cur.Samples = value, samples
	m[name] = cur
}

// errNegativeLayer reports replays that explain more time than the ops
// they explain took. It depends on timing: at full scale it means the
// twin does not cost what the server does; at smoke scale, where a
// layer's total is a handful of calls, it can be noise.
var errNegativeLayer = errors.New("trace: a layer's self time is negative")

// traceMetrics fills the per-layer numbers every traced run has: the
// layers' shares of the traced end-to-end time, the sum check and the
// tracing overhead.
func traceMetrics(pl map[string]metric, sum traceSummary, untraced, traced phase) error {
	for _, l := range []string{"wire", "server", "expr", "view", "store", "core", "federation", "harness"} {
		setLayer(pl, "share."+l, sum.share(l), sum.Ops)
	}
	setLayer(pl, "trace.layer_sum_ratio", sum.sumRatio(), sum.Ops)
	setLayer(pl, "trace.negative_self_spans", float64(sum.NegativeSelf), sum.Spans)
	if u := untraced.opsPerSecond(); u > 0 {
		setLayer(pl, "trace.overhead_ratio", traced.opsPerSecond()/u, traced.ops)
	}
	// Tails come from the untraced segments, like every latency.
	for _, a := range []struct {
		name string
		tag  uint8
	}{{"read", tagRead}, {"write", tagWrite}} {
		if v, p := tail(pick(untraced.samples, a.tag)); p > 0 {
			setLayer(pl, "tail."+a.name+"_us", us(v), len(untraced.samples))
			setLayer(pl, "tail."+a.name+"_pct", p, len(untraced.samples))
		}
	}
	if sum.BadParents > 0 {
		return fmt.Errorf("trace: %d spans with an invalid parent", sum.BadParents)
	}
	if r := sum.sumRatio(); r > 1.05 {
		return fmt.Errorf("%w: the others sum to %.3f of the traced end-to-end time (want within 5%%): %v", errNegativeLayer, r, sum.SelfNS)
	}
	return nil
}

// tally records the op and oracle counts and the fail ratio.
func (o *runOutput) tally(untraced, traced phase, checked, failed int) {
	o.Attempted = untraced.ops + traced.ops + checked
	o.Failed = untraced.failed + traced.failed + failed
	o.EndToEnd["fail_ratio"] = metric{Value: float64(o.Failed) / float64(o.Attempted), Unit: "ratio", Samples: o.Attempted}
}

// separation adds the layer-separation finding to the report: the share
// of the traced end-to-end time the named layers took, beside what the
// issue predicted for the workload.
func (o *runOutput) separation(sum traceSummary, predicted string, layers ...string) {
	o.Notes = append(o.Notes, fmt.Sprintf("layer separation: %s = %.1f%% of the traced end-to-end time (predicted %s)",
		strings.Join(layers, "+"), 100*sum.share(layers...), predicted))
}

// finishTrace completes a traced run: the shared trace metrics, the
// trace file, and the sum check's verdict (returned after the file is
// written, so a failing trace can be read).
func finishTrace(out *runOutput, e env, pl map[string]metric, tracers []*tracer, sum traceSummary, untraced, traced phase) error {
	terr := traceMetrics(pl, sum, untraced, traced)
	out.PerLayer = pl
	counters := map[string]float64{}
	for k, m := range pl {
		counters[k] = m.Value
	}
	path, err := writeTrace(e.outDir, out.Workload, tracers, sum, counters)
	if err != nil {
		return err
	}
	out.TraceFile = path
	return terr
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Tracing is the harness's own: a span around every call it makes into
// a layer's public functions. Spans inside the program are a later
// issue. Two kinds of span exist and the trace file says which is
// which:
//
//   - in place: the call is part of the timed op (Engine.RunContext on
//     scan-read, Federation.Attach on federate-attach, the client round
//     trip on the wire workloads);
//   - replay: after a wire round trip the harness repeats the op's
//     layer calls — parse, run, validate, ship, codec — on a twin
//     federation built exactly like the server's. The replay costs what
//     the server paid for the same call at the same extent, and the
//     round trip minus the replays is the server's own share: socket,
//     dispatch, admission, batcher and goroutine hand-off.
//
// A span's self time is its duration minus its children's durations. A
// replayed child is an estimate, so one op's self time can come out
// negative (the twin's ship took longer than the server's whole round
// trip); self times are therefore summed signed, where the noise
// cancels, and it is a layer's total that must not be negative.

// Span names. The part before the dot is the layer (this repository's
// packages; "federation" is the root package's attach/detach glue and
// "harness" the benchmark's own loop).
const (
	spRoundTrip    = iota // server.roundtrip: the client-observed wire round trip
	spCodec               // wire.codec
	spParse               // expr.parse
	spRun                 // view.run
	spValidate            // view.validate
	spShip                // view.ship
	spCommit              // store.commit
	spWAL                 // store.wal
	spHarnessOp           // harness.op
	spIteration           // federation.iteration
	spAttachSeed          // federation.attach_seed
	spIntegrate           // federation.integrate
	spAttach              // federation.attach
	spDetach              // federation.detach
	spCompile             // core.compile
	spConform             // core.conform
	spMerge               // core.merge
	spDerive              // core.derive
	spEngineNew           // view.new
	spGraft               // core.graft: FedState.AttachPair
	spDetachMember        // core.detach: FedState.DetachMember
	spRebind              // view.rebind: Engine.Rebind around either
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"server.roundtrip", "wire.codec", "expr.parse", "view.run", "view.validate",
	"view.ship", "store.commit", "store.wal", "harness.op", "federation.iteration",
	"federation.attach_seed", "federation.integrate", "federation.attach",
	"federation.detach", "core.compile", "core.conform", "core.merge",
	"core.derive", "view.new", "core.graft", "core.detach", "view.rebind",
}

func layerOf(name uint8) string {
	s := spanNames[name]
	return s[:strings.IndexByte(s, '.')]
}

// span is one recorded layer call. Parent is an index into the same
// tracer's spans, -1 for an op's root span.
type span struct {
	name       uint8
	replay     bool
	parent     int32
	op         int64
	start, end int64 // ns since the run epoch
}

// tracer collects one client's spans in memory; nil means untraced.
type tracer struct {
	client int
	epoch  time.Time
	spans  []span
}

func newTracer(client int, epoch time.Time, capHint int) *tracer {
	return &tracer{client: client, epoch: epoch, spans: make([]span, 0, capHint)}
}

// add records a span and returns its index, for use as a parent.
func (t *tracer) add(name uint8, parent int32, op int64, start, end time.Time, replay bool) int32 {
	t.spans = append(t.spans, span{
		name: name, replay: replay, parent: parent, op: op,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds(),
	})
	return int32(len(t.spans) - 1)
}

// traceSummary is what the spans add up to.
type traceSummary struct {
	Ops   int
	Spans int
	// RootNS is the summed duration of the root spans: the traced
	// end-to-end time. SelfNS is each layer's summed self time.
	RootNS int64
	SelfNS map[string]int64
	// NameNS is the summed self time and NameCount the call count per
	// span name.
	NameNS    map[string]int64
	NameCount map[string]int
	// NegativeSelf counts spans whose children outlasted them.
	NegativeSelf int
	BadParents   int
}

// sumRatio is the layers' non-negative self times over the traced
// end-to-end time. The signed self times sum to the end-to-end time by
// construction, so the ratio is 1 unless some layer's total is negative
// — the replays explain more time than the ops took — and exceeds 1 by
// that layer's share.
func (s traceSummary) sumRatio() float64 {
	if s.RootNS == 0 {
		return 1
	}
	var sum int64
	for _, v := range s.SelfNS {
		sum += max(v, 0)
	}
	return float64(sum) / float64(s.RootNS)
}

func (s traceSummary) share(layers ...string) float64 {
	if s.RootNS == 0 {
		return 0
	}
	var sum int64
	for _, l := range layers {
		sum += s.SelfNS[l]
	}
	return float64(sum) / float64(s.RootNS)
}

// perOp is a span name's summed self time per op, in µs.
func (s traceSummary) perOp(name uint8, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(s.NameNS[spanNames[name]]) / 1e3 / float64(ops)
}

func summarize(tracers []*tracer) traceSummary {
	sum := traceSummary{SelfNS: map[string]int64{}, NameNS: map[string]int64{}, NameCount: map[string]int{}}
	for _, t := range tracers {
		child := make([]int64, len(t.spans))
		for i, sp := range t.spans {
			if sp.parent < -1 || int(sp.parent) >= i {
				sum.BadParents++
				continue
			}
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range t.spans {
			self := sp.end - sp.start - child[i]
			if self < 0 {
				sum.NegativeSelf++
			}
			sum.SelfNS[layerOf(sp.name)] += self
			sum.NameNS[spanNames[sp.name]] += self
			sum.NameCount[spanNames[sp.name]]++
			if sp.parent == -1 {
				sum.Ops++
				sum.RootNS += sp.end - sp.start
			}
		}
		sum.Spans += len(t.spans)
	}
	return sum
}

// traceFileSpans caps the spans written out; the summary covers all.
const traceFileSpans = 20000

type jsonSpan struct {
	Client int    `json:"client"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// writeTrace writes out/trace-<workload>.json: the summary, the counters
// taken at the same boundaries, and the first traceFileSpans spans.
func writeTrace(outDir, workload string, tracers []*tracer, sum traceSummary, counters map[string]float64) (string, error) {
	var spans []jsonSpan
	for _, t := range tracers {
		for i, sp := range t.spans {
			if len(spans) >= traceFileSpans {
				break
			}
			spans = append(spans, jsonSpan{
				Client: t.client, ID: i, Parent: int(sp.parent), Op: sp.op,
				Name: spanNames[sp.name], Start: sp.start, End: sp.end, Replay: sp.replay,
			})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	doc := map[string]any{
		"workload":      workload,
		"ops":           sum.Ops,
		"spans_total":   sum.Spans,
		"spans_written": len(spans),
		"root_ns":       sum.RootNS,
		"self_ns":       sum.SelfNS,
		"self_ns_name":  sum.NameNS,
		"calls":         sum.NameCount,
		"negative_self": sum.NegativeSelf,
		"sum_ratio":     sum.sumRatio(),
		"counters":      counters,
		"spans":         spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s.json", workload))
	return path, os.WriteFile(path, data, 0o644)
}

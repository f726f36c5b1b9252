package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"interopdb"
	"interopdb/internal/core"
	"interopdb/internal/logic"
	"interopdb/internal/view"
)

// federate-attach: per iteration, a new federation with a fresh memo
// attaches Library, attaches Bookseller (the full compile → conform →
// merge → derive with a cold solver), attaches UnivArchive
// (incremental, the memo now warm) and detaches it again. One client:
// the pipeline fans out over GOMAXPROCS workers itself.

type fedSystem struct {
	lib, bs, arch             *interopdb.Store
	libSpec, bsSpec, archSpec *interopdb.DatabaseSpec
	is, ais                   *interopdb.IntegrationSpec
}

// setupFederate is the timed set-up: the three populated stores and the
// parsed specifications.
func setupFederate(sc scale) (fedSystem, error) {
	lib, bs := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: sc.FedScale})
	return fedSystem{
		lib: lib, bs: bs, arch: interopdb.ArchiveStore(interopdb.FixtureOptions{Scale: sc.FedScale}),
		libSpec: interopdb.Figure1Library(), bsSpec: interopdb.Figure1Bookseller(), archSpec: interopdb.Figure1UnivArchive(),
		is: interopdb.Figure1IntegrationRepaired(), ais: interopdb.Figure1ArchiveIntegration(),
	}, nil
}

type fedDriver struct {
	ctx        context.Context
	seed       int64
	iterations int
	sys        fedSystem

	reports     map[[32]byte]int // Report() hashes seen, with and without the archive
	solverCold  int64            // solver queries of the founding-pair attaches
	solverWarm  int64            // and of the incremental ones
	memoHits    int64
	memoQueries int64
	stageNS     [4]int64 // replayed compile, conform, merge, derive
	replays     int64
}

func (d *fedDriver) clients() int { return 1 }
func (d *fedDriver) ops(int) int  { return d.iterations }
func (d *fedDriver) flush() error { return nil }

func (d *fedDriver) do(_, i int, tr *tracer, out *[]sample) bool {
	lib, bs, arch, is, ais := d.sys.libSpec, d.sys.bsSpec, d.sys.archSpec, d.sys.is, d.sys.ais
	opID := int64(i)
	t0 := time.Now()
	f := interopdb.NewFederation(d.seed, interopdb.PipelineOptions{})
	if err := f.AttachContext(d.ctx, lib, d.sys.lib, nil); err != nil {
		return false
	}
	t1 := time.Now()
	if err := f.AttachContext(d.ctx, bs, d.sys.bs, is); err != nil {
		return false
	}
	t2 := time.Now()
	cold := f.LastAttachReasoning()
	if err := f.AttachContext(d.ctx, arch, d.sys.arch, ais); err != nil {
		return false
	}
	t3 := time.Now()
	warm := f.LastAttachReasoning()
	with := sha256.Sum256([]byte(f.Report()))
	t4 := time.Now()
	if err := f.DetachContext(d.ctx, arch.Schema.Name); err != nil {
		return false
	}
	t5 := time.Now()
	without := sha256.Sum256([]byte(f.Report()))
	*out = append(*out,
		sample{ns: t2.Sub(t1).Nanoseconds(), tag: tagHeavy},
		sample{ns: t3.Sub(t2).Nanoseconds(), tag: tagLight})
	d.reports[with]++
	d.reports[without]++
	d.solverCold += cold.Hits + cold.Misses
	d.solverWarm += warm.Hits + warm.Misses
	d.memoHits += cold.Hits + warm.Hits
	d.memoQueries += cold.Hits + cold.Misses + warm.Hits + warm.Misses
	if tr == nil {
		return true
	}
	// The iteration's own calls are in-place spans (the two Report
	// renderings are the oracle's, left to the iteration's self time).
	// Under each hang replays of the public core and view calls the
	// root package's Federation makes for it, on the same inputs and
	// with a fresh memo as the iteration had: the four pipeline stages
	// and the engine build under the founding-pair attach; the pair's
	// stages and the graft under the incremental one; the retraction
	// under the detach.
	root := tr.add(spIteration, -1, opID, t0, t5, false)
	tr.add(spAttachSeed, root, opID, t0, t1, false)
	integ := tr.add(spIntegrate, root, opID, t1, t2, false)
	att := tr.add(spAttach, root, opID, t2, t3, false)
	det := tr.add(spDetach, root, opID, t4, t5, false)
	memo := logic.NewMemo()
	opts := core.Options{Memo: memo}
	res, err := d.replayStages(tr, integ, opID, lib, bs, is, d.sys.lib, d.sys.bs, opts, nil)
	if err != nil {
		return false
	}
	a := time.Now()
	eng := view.New(res)
	tr.add(spEngineNew, integ, opID, a, time.Now(), true)
	fs := core.NewFedState(res, lib.Schema.Name, opts, memo)
	pair, err := d.replayStages(tr, att, opID, lib, arch, ais, d.sys.lib, d.sys.arch, opts, res)
	if err != nil {
		return false
	}
	rebind := func(parent int32, inner uint8, apply func() (changed, removed []string, err error)) error {
		var i0, i1 time.Time
		a := time.Now()
		err := eng.Rebind(func() (changed, removed []string, err error) {
			i0 = time.Now()
			changed, removed, err = apply()
			i1 = time.Now()
			return changed, removed, err
		})
		rb := tr.add(spRebind, parent, opID, a, time.Now(), true)
		tr.add(inner, rb, opID, i0, i1, true)
		return err
	}
	if err := rebind(att, spGraft, func() (changed, removed []string, err error) {
		changed, err = fs.AttachPair(pair, arch.Schema.Name, lib.Schema.Name)
		return changed, nil, err
	}); err != nil {
		return false
	}
	if err := rebind(det, spDetachMember, func() (changed, removed []string, err error) {
		return fs.DetachMember(arch.Schema.Name)
	}); err != nil {
		return false
	}
	d.replays++
	return true
}

// replayStages runs compile → conform → merge → derive, a span around
// each. With base nil it is the founding pair, as core.IntegrateOptions
// runs it, and the stage times feed the core.*_ms metrics; otherwise it
// is a later pair, whose derivation shares the memo only when its
// typing agrees with the federation's, as Federation.Attach decides.
func (d *fedDriver) replayStages(tr *tracer, parent int32, opID int64, local, remote *interopdb.DatabaseSpec, is *interopdb.IntegrationSpec,
	ls, rs *interopdb.Store, opts core.Options, base *core.Result) (*core.Result, error) {
	var marks [5]time.Time
	marks[0] = time.Now()
	spec, err := core.Compile(local, remote, is)
	if err != nil {
		return nil, err
	}
	spec.Seed = d.seed
	marks[1] = time.Now()
	conf, err := core.ConformOptions(spec, ls, rs, opts)
	if err != nil {
		return nil, err
	}
	marks[2] = time.Now()
	gv, err := core.Merge(conf)
	if err != nil {
		return nil, err
	}
	marks[3] = time.Now()
	if base != nil {
		if ck := base.Derivation.Checker; ck == nil || !core.TypesCompatible(ck.Types, conf.Types) {
			opts.Memo = nil
		}
	}
	res := &core.Result{Spec: spec, Conformed: conf, View: gv, Derivation: core.DeriveOptions(gv, opts)}
	marks[4] = time.Now()
	for i, name := range []uint8{spCompile, spConform, spMerge, spDerive} {
		tr.add(name, parent, opID, marks[i], marks[i+1], true)
		if base == nil {
			d.stageNS[i] += marks[i+1].Sub(marks[i]).Nanoseconds()
		}
	}
	return res, nil
}

func runFederate(e env, spec *benchSpec) (*runOutput, error) {
	iterations := e.sc.OpsPerSecond[wlFederate] * e.seconds
	sys, setups, err := timeSetups(e.sc.Setups, func() (fedSystem, error) { return setupFederate(e.sc) }, func(fedSystem) {})
	if err != nil {
		return nil, err
	}
	// Warm-up, untimed: one iteration, so first-use costs are paid.
	warm := &fedDriver{ctx: context.Background(), seed: e.seed, sys: sys, reports: map[[32]byte]int{}}
	var scratch []sample
	if !warm.do(0, 0, nil, &scratch) {
		return nil, fmt.Errorf("warm-up iteration failed")
	}
	warmReports := len(warm.reports)
	d := &fedDriver{ctx: warm.ctx, seed: e.seed, iterations: iterations, sys: sys, reports: warm.reports}

	untraced, traced, tracers, err := runScripts(d, e.trace)
	if err != nil {
		return nil, err
	}
	out := &runOutput{Workload: wlFederate, Config: baseConfig(e, hashFederate(e.seed, e.sc, iterations), 1, iterations)}
	out.Config["extent_library"] = sys.lib.Count()
	out.Config["extent_bookseller"] = sys.bs.Count()
	out.Config["extent_archive"] = sys.arch.Count()
	// Oracle: the federation renders the same two reports — with the
	// archive and without — on every iteration, the warm-up included.
	checked, failed := untraced.ops+traced.ops, 0
	if len(d.reports) != warmReports || warmReports > 2 {
		failed = checked
		fmt.Fprintf(os.Stderr, "oracle: %d distinct Federation.Report() hashes over the iterations, want %d\n", len(d.reports), 2)
	}
	out.EndToEnd = endToEnd(setups, untraced)
	for alias, name := range map[string]string{"integrate_p50_ms": mHeavyP50, "attach_p50_ms": mLightP50} {
		m := out.EndToEnd[name]
		out.EndToEnd[alias] = metric{Value: m.Value / 1e3, Unit: "ms", Samples: m.Samples}
	}
	out.tally(untraced, traced, checked, failed)
	if !e.trace {
		return out, nil
	}
	sum := summarize(tracers)
	pl := layerMetrics(spec)
	if d.replays > 0 {
		for i, n := range []string{"core.compile_ms", "core.conform_ms", "core.merge_ms", "core.derive_ms"} {
			setLayer(pl, n, float64(d.stageNS[i])/1e6/float64(d.replays), int(d.replays))
		}
	}
	its := untraced.ops + traced.ops
	setLayer(pl, "logic.solver_queries_per_integrate", float64(d.solverCold)/float64(its), its)
	setLayer(pl, "logic.solver_queries_per_attach", float64(d.solverWarm)/float64(its), its)
	if d.memoQueries > 0 {
		setLayer(pl, "logic.memo_hit_rate", float64(d.memoHits)/float64(d.memoQueries), int(d.memoQueries))
	}
	// The solver runs inside core's derive and conform calls; from
	// outside the two cannot be told apart, so core's share includes
	// logic's.
	out.separation(sum, ">= 90%, logic's time included", "core")
	return out, finishTrace(out, e, pl, tracers, sum, untraced, traced)
}

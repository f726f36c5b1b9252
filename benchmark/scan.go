package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"interopdb"
	"interopdb/internal/core"
	"interopdb/internal/view"
)

// scan-read: in-process Engine.RunContext on a generated bibliographic
// federation. No socket, no server, no store write: view (probe,
// residual, projection) and the compiled expr evaluation do the work.

type scanSystem struct {
	res    *interopdb.Result
	eng    *view.Engine
	stages [4]time.Duration // compile, conform, merge, derive
}

// setupScan is the timed set-up: generate the stores, run the four
// pipeline stages (IntegrateOptions' own sequence, timed one by one),
// build the engine and run every shape once so plans and indexes exist.
func setupScan(ctx context.Context, seed int64, sc scale, shapes []view.Query) (scanSystem, error) {
	var sys scanSystem
	p := interopdb.DefaultWorkloadParams()
	p.Seed = seed
	p.LocalBooks, p.RemoteBooks = sc.ScanBooks, sc.ScanBooks
	local, remote := interopdb.BibliographicWorkload(p)
	t := time.Now()
	spec, err := core.Compile(interopdb.Figure1Library(), interopdb.Figure1Bookseller(), interopdb.Figure1IntegrationRepaired())
	if err != nil {
		return sys, err
	}
	spec.Seed = 1
	sys.stages[0] = time.Since(t)
	t = time.Now()
	conf, err := core.ConformOptions(spec, local, remote, core.Options{})
	if err != nil {
		return sys, err
	}
	sys.stages[1] = time.Since(t)
	t = time.Now()
	gv, err := core.Merge(conf)
	if err != nil {
		return sys, err
	}
	sys.stages[2] = time.Since(t)
	t = time.Now()
	sys.res = &core.Result{Spec: spec, Conformed: conf, View: gv, Derivation: core.DeriveOptions(gv, core.Options{})}
	sys.stages[3] = time.Since(t)
	sys.eng = view.New(sys.res)
	for _, q := range shapes {
		if _, _, err := sys.eng.RunContext(ctx, q); err != nil {
			return sys, fmt.Errorf("warm-up %s: %w", q.Where, err)
		}
	}
	return sys, nil
}

type scanDriver struct {
	ctx    context.Context
	in     *scanInputs
	shapes []view.Query
	expect []int
	eng    *view.Engine
	state  []readCounters
}

func (d *scanDriver) clients() int       { return len(d.in.scripts) }
func (d *scanDriver) ops(client int) int { return len(d.in.scripts[client]) }
func (d *scanDriver) flush() error       { return nil }

func (d *scanDriver) do(c, i int, tr *tracer, out *[]sample) bool {
	o := d.in.scripts[c][i]
	tag := tagHeavy | tagRead
	if d.in.shapes[o.stmt].kind != "broad" {
		tag = tagLight | tagRead
	}
	t0 := time.Now()
	rows, stats, err := d.eng.RunContext(d.ctx, d.shapes[o.stmt])
	t1 := time.Now()
	d.state[c].note(stats, len(rows))
	ok := err == nil && len(rows) == d.expect[o.stmt]
	*out = append(*out, sample{ns: t1.Sub(t0).Nanoseconds(), tag: tag})
	if tr != nil {
		// The op is the harness's call; the engine call inside it is the
		// view layer's, and what is left is the loop's own bookkeeping.
		opID := int64(c)<<40 | int64(i)
		root := tr.add(spHarnessOp, -1, opID, t0, time.Now(), false)
		tr.add(spRun, root, opID, t0, t1, false)
	}
	return ok
}

func runScan(e env, spec *benchSpec) (*runOutput, error) {
	ctx := context.Background()
	nc := e.clientCount()
	total := e.sc.OpsPerSecond[wlScanRead] * e.seconds
	in := genScan(e.seed, e.sc, nc, total)
	d := &scanDriver{ctx: ctx, in: in, state: make([]readCounters, nc), expect: make([]int, len(in.shapes))}
	for _, s := range in.shapes {
		q, err := view.ParseQuery(s.text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.text, err)
		}
		d.shapes = append(d.shapes, q)
	}
	sys, setups, err := timeSetups(e.sc.Setups,
		func() (scanSystem, error) { return setupScan(ctx, e.seed, e.sc, d.shapes) }, func(scanSystem) {})
	if err != nil {
		return nil, err
	}
	d.eng = sys.eng

	// Oracle: every shape against the plain scan of the same view.
	ref := view.New(sys.res)
	ref.UseIndexes, ref.UseConstraints = false, false
	checked, failed := 0, 0
	for i, q := range d.shapes {
		rows, _, err := d.eng.RunContext(ctx, q)
		want, _, rerr := ref.RunContext(ctx, q)
		checked++
		if err != nil || rerr != nil || !sameRows(rows, want) {
			failed++
			fmt.Fprintf(os.Stderr, "oracle: %s: engine %d rows (err %v), scan %d rows (err %v)\n", in.shapes[i].text, len(rows), err, len(want), rerr)
		}
		d.expect[i] = len(want)
	}

	solverBefore := d.eng.CacheStats().SolverQueries
	untraced, traced, tracers, err := runScripts(d, e.trace)
	if err != nil {
		return nil, err
	}
	solver := d.eng.CacheStats().SolverQueries - solverBefore

	out := &runOutput{Workload: wlScanRead, Config: baseConfig(e, in.hash, nc, total)}
	out.Config["extent_item"] = len(sys.res.View.Extent("Item"))
	out.Config["extent_proceedings"] = len(sys.res.View.Extent("Proceedings"))
	out.Config["shapes"] = len(in.shapes)
	out.EndToEnd = endToEnd(setups, untraced)
	out.tally(untraced, traced, checked, failed)
	if !e.trace {
		return out, nil
	}

	sum := summarize(tracers)
	pl := layerMetrics(spec)
	var all readCounters
	for _, st := range d.state {
		all.add(st)
	}
	all.set(pl)
	setLayer(pl, "view.run_us_per_op", sum.perOp(spRun, sum.Ops), sum.Ops)
	setLayer(pl, "logic.solver_queries_per_read", float64(solver)/float64(all.reads), int(all.reads))
	// The pipeline stages ran in set-up; they explain setup_s here.
	for i, n := range []string{"core.compile_ms", "core.conform_ms", "core.merge_ms", "core.derive_ms"} {
		setLayer(pl, n, float64(sys.stages[i].Nanoseconds())/1e6, 1)
	}
	ds := sys.res.Derivation.CacheStats()
	setLayer(pl, "logic.solver_queries_per_integrate", float64(ds.Hits+ds.Misses), 1)
	setLayer(pl, "logic.memo_hit_rate", ds.HitRate(), int(ds.Hits+ds.Misses))
	out.separation(sum, ">= 90%, expr's compiled evaluation included", "view")
	out.Notes = append(out.Notes, fmt.Sprintf("solver queries in the read-only steady state: %d (predicted 0)", solver))
	return out, finishTrace(out, e, pl, tracers, sum, untraced, traced)
}

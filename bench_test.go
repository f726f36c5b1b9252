package interopdb

// Go benchmarks for measuring while you work (DESIGN.md §6): the
// E-series regenerates every worked example and figure of the paper, the
// B-series exercises the motivating claims on synthetic workloads, and
// the micro-benchmarks cover the substrates.
//
//	go test -bench=. -benchmem .
//
// A performance claim cites the repo benchmark (BENCHMARK.json,
// benchmark/), not these; cmd/interopbench prints the E checks and the
// count tables with paper-vs-measured annotations.

import (
	"context"
	"testing"

	"interopdb/internal/experiments"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/tm"
	"interopdb/internal/view"
	"interopdb/internal/workload"

	"interopdb/internal/core"
	"interopdb/internal/fixture"
)

// benchE runs one E-series scenario per iteration, failing the benchmark
// if the reproduction check fails.
func benchE(b *testing.B, fn func() (experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if !r.Passed() {
			b.Fatalf("reproduction failed:\n%s", r)
		}
	}
}

func BenchmarkE1_IntroPersonnel(b *testing.B)     { benchE(b, experiments.E1) }
func BenchmarkE2_Figure1Parse(b *testing.B)       { benchE(b, experiments.E2) }
func BenchmarkE3_DerivedConstraints(b *testing.B) { benchE(b, experiments.E3) }
func BenchmarkE4_Conformation(b *testing.B)       { benchE(b, experiments.E4) }
func BenchmarkE5_SubjectivityCheck(b *testing.B)  { benchE(b, experiments.E5) }
func BenchmarkE6_EqualityDerivation(b *testing.B) { benchE(b, experiments.E6) }
func BenchmarkE7_StrictSimCheck(b *testing.B)     { benchE(b, experiments.E7) }
func BenchmarkE8_ApproxSim(b *testing.B)          { benchE(b, experiments.E8) }
func BenchmarkE9_ClassKeyRules(b *testing.B)      { benchE(b, experiments.E9) }
func BenchmarkE10_GlobalLattice(b *testing.B)     { benchE(b, experiments.E10) }
func BenchmarkE11_FullPipeline(b *testing.B)      { benchE(b, experiments.E11) }

// B1: query optimisation with and without derived global constraints.
func BenchmarkB1_QueryOptimization(b *testing.B) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 1000, 1000
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
		tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := view.Query{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")}
	b.Run("withConstraints", func(b *testing.B) {
		e := view.New(res)
		for i := 0; i < b.N; i++ {
			if _, st, err := e.Run(q); err != nil || !st.PrunedEmpty {
				b.Fatalf("expected pruned run: %+v %v", st, err)
			}
		}
	})
	b.Run("baselineDropAll", func(b *testing.B) {
		e := view.New(res)
		e.UseConstraints = false
		for i := 0; i < b.N; i++ {
			if _, st, err := e.Run(q); err != nil || st.PrunedEmpty {
				b.Fatalf("baseline must scan: %+v %v", st, err)
			}
		}
	})
}

// B2: update validation catching doomed subtransactions early.
func BenchmarkB2_TxnValidation(b *testing.B) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 500, 500
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
		tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		b.Fatal(err)
	}
	e := view.New(res)
	doomed := map[string]object.Value{
		"title": object.Str("x"), "isbn": object.Str("bench-tx"),
		"publisher": object.Ref{DB: "Bookseller", OID: 1}, // IEEE
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"ref?": object.Bool(false), "rating": object.Int(8),
	}
	ops := []view.Mutation{{Kind: view.MutInsert, Class: "Proceedings", Attrs: doomed}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rejs, _, err := e.Validate(context.Background(), ops); err != nil || len(rejs) == 0 {
			b.Fatalf("doomed insert not caught: %v", err)
		}
	}
}

// Full pipeline over the scaled Figure 1 fixture (fixture.Options.Scale
// grows extents and merged pairs linearly), sequential vs parallel.
func BenchmarkFixtureScalePipeline(b *testing.B) {
	for _, mode := range []struct {
		tag  string
		opts core.Options
	}{
		{"seq", core.Options{Parallelism: 1, NoMemo: true}},
		{"par", core.Options{}},
	} {
		b.Run("scale=50/"+mode.tag, func(b *testing.B) {
			local, remote := fixture.Figure1Stores(fixture.Options{Scale: 50})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(),
					tm.Figure1Integration(), local, remote, 1, mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Memoized vs uncached entailment on the repeated-query stream the
// sibling-class integration pattern produces.
func BenchmarkMemoizedEntailment(b *testing.B) {
	prem := []Expr{
		expr.MustParse("ref? = true"),
		expr.MustParse("ref? = true implies rating >= 7"),
	}
	conc := expr.MustParse("rating >= 4")
	types := map[string]object.Type{"rating": object.RangeType{Lo: 1, Hi: 10}}
	b.Run("uncached", func(b *testing.B) {
		c := &logic.Checker{Types: types, NoMemo: true}
		for i := 0; i < b.N; i++ {
			if c.Entails(prem, conc) != logic.Yes {
				b.Fatal("entailment failed")
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		c := &logic.Checker{Types: types}
		for i := 0; i < b.N; i++ {
			if c.Entails(prem, conc) != logic.Yes {
				b.Fatal("entailment failed")
			}
		}
		b.ReportMetric(100*c.CacheStats().HitRate(), "cache-hit-%")
	})
}

// --- serving fast path: extent indexes + compiled predicates --------------

// serveEngine builds a query engine over the scaled Figure 1 fixture.
func serveEngine(b *testing.B, scale int) *view.Engine {
	b.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(),
		tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		b.Fatal(err)
	}
	return view.New(res)
}

// benchServe times one query with the indexed+compiled fast path against
// the pure interpreter scan on the same engine.
func benchServe(b *testing.B, q view.Query, wantRows int) {
	e := serveEngine(b, 50)
	for _, mode := range []struct {
		tag string
		idx bool
	}{{"indexed", true}, {"scan", false}} {
		b.Run(mode.tag, func(b *testing.B) {
			b.ReportAllocs()
			e.UseIndexes = mode.idx
			// Warm the lazily-built indexes and the entailment memo
			// outside the timed region.
			if _, _, err := e.Run(q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := e.Run(q)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != wantRows {
					b.Fatalf("rows = %d, want %d", len(rows), wantRows)
				}
			}
		})
	}
}

// BenchmarkServeEquality: selective equality query at Scale 50 — the
// hash index answers it with one probe.
func BenchmarkServeEquality(b *testing.B) {
	benchServe(b, view.Query{Class: "Item", Where: expr.MustParse("isbn = 'vldb96-c25'")}, 1)
}

// BenchmarkServeRange: selective range query at Scale 50 — the ordered
// index narrows the candidates, the compiled residual filters them.
func BenchmarkServeRange(b *testing.B) {
	benchServe(b, view.Query{Class: "Proceedings",
		Where: expr.MustParse("rating >= 7 and shopprice < 75")}, 1)
}

// BenchmarkServeParallel: the lock-free claim under load — every
// GOMAXPROCS worker serves the same plan-cached queries from the
// published snapshot concurrently. Run never takes the engine lock, so
// on a multi-core host ns/op drops with the worker count; on the
// single-core CI runner this is a correctness smoke (the workers must
// keep agreeing on the answer).
func BenchmarkServeParallel(b *testing.B) {
	e := serveEngine(b, 50)
	q := view.Query{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")}
	rows, _, err := e.Run(q) // warm the plan cache
	if err != nil {
		b.Fatal(err)
	}
	want := len(rows)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rows, _, err := e.Run(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != want {
				b.Fatalf("rows = %d, want %d", len(rows), want)
			}
		}
	})
}

// BenchmarkServeValidateFreshKey: key-uniqueness validation of a
// fresh-key insert across extent sizes — the key index answers "no
// holder" in O(1) while the reference path scans the extent per insert.
func BenchmarkServeValidateFreshKey(b *testing.B) {
	for _, scale := range []int{5, 50} {
		e := serveEngine(b, scale)
		ops := []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title": object.Str("fresh"), "isbn": object.Str("bench-fresh-key"),
			"shopprice": object.Real(10), "libprice": object.Real(5),
		}}}
		for _, mode := range []struct {
			tag string
			idx bool
		}{{"indexed", true}, {"scan", false}} {
			b.Run("scale="+itoa(scale)+"/"+mode.tag, func(b *testing.B) {
				b.ReportAllocs()
				e.UseIndexes = mode.idx
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if rejs, _, err := e.Validate(context.Background(), ops); err != nil || len(rejs) != 0 {
						b.Fatalf("fresh-key insert not accepted: %v %v", rejs, err)
					}
				}
			})
		}
	}
}

// B5: baseline comparison (class-based precision, union-all rejections).
func BenchmarkB5_BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.B5()
		if err != nil {
			b.Fatal(err)
		}
		if r.ClassBasedPrecision >= 1 {
			b.Fatal("class-based baseline should over-assign")
		}
		if r.UnionAllFalseRej == 0 {
			b.Fatal("union-all should falsely reject merged states")
		}
	}
}

// B6: conflict detection and repair suggestion under injected weakenings.
func BenchmarkB6_ConflictRepair(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.B6()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Conflicts > 0 && r.Suggestions == 0 {
				b.Fatal("conflicts without suggestions")
			}
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------------

func BenchmarkParserFigure1Constraint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expr.Parse("publisher.name = 'IEEE' implies ref? = true"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReasonerEntailment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Reasoner() != logic.Yes {
			b.Fatal("entailment failed")
		}
	}
}

func BenchmarkStoreInsert(b *testing.B) {
	spec := tm.Personnel1()
	tariffs := []object.Value{object.Int(10), object.Int(20)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			b.StopTimer()
			// Fresh store to bound the key-check extension size.
			s := NewStore(spec)
			b.StartTimer()
			benchStore = s
		}
		_, err := benchStore.Insert("Employee", map[string]object.Value{
			"ssn":        object.Str("s" + itoa(i)),
			"salary":     object.Real(1000),
			"trav_reimb": tariffs[i%2],
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

var benchStore *Store

func BenchmarkEntityResolutionMerge(b *testing.B) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 1000, 1000
	local, remote := workload.Bibliographic(p)
	spec := core.MustCompile(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration())
	conf, err := core.Conform(spec, local, remote)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Merge(conf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConformPhase(b *testing.B) {
	local, remote := fixture.Figure1Stores(fixture.Options{})
	spec := core.MustCompile(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Conform(spec, local, remote); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFederationMembership is one membership change end to end at
// Scale 1000 (≈ 2 000 objects per member): Cycle is the iteration the
// repo benchmark's federate-attach workload times — seed, founding
// pair, incremental attach of the archive, Report, detach, Report — and
// the other four are its stages on the same inputs, set-up untimed.
func BenchmarkFederationMembership(b *testing.B) {
	opt := FixtureOptions{Scale: 1000}
	lib, bs := Figure1Stores(opt)
	arch := ArchiveStore(opt)
	libSpec, bsSpec, archSpec := Figure1Library(), Figure1Bookseller(), Figure1UnivArchive()
	is, ais := Figure1IntegrationRepaired(), Figure1ArchiveIntegration()

	// founding integrates the founding pair; pair integrates the archive
	// against the seed, as Federation.Attach does for a third member.
	founding := func(b *testing.B) *core.FedState {
		memo := logic.NewMemo()
		opts := core.Options{Memo: memo}
		res, err := core.IntegrateOptions(libSpec, bsSpec, is, lib, bs, 1, opts)
		if err != nil {
			b.Fatal(err)
		}
		return core.NewFedState(res, libSpec.Schema.Name, opts, memo)
	}
	pair := func(b *testing.B, fs *core.FedState) *core.Result {
		res, err := core.IntegrateOptions(libSpec, archSpec, ais, lib, arch, 1, fs.Opts)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}

	b.Run("Cycle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fed := NewFederation(1, PipelineOptions{})
			if err := fed.Attach(libSpec, lib, nil); err != nil {
				b.Fatal(err)
			}
			if err := fed.Attach(bsSpec, bs, is); err != nil {
				b.Fatal(err)
			}
			if err := fed.Attach(archSpec, arch, ais); err != nil {
				b.Fatal(err)
			}
			with := fed.Report()
			if err := fed.Detach(archSpec.Schema.Name); err != nil {
				b.Fatal(err)
			}
			if without := fed.Report(); with == without {
				b.Fatal("detach left the report unchanged")
			}
		}
	})
	spec := core.MustCompile(libSpec, bsSpec, is)
	b.Run("Conform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Conform(spec, lib, bs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Merge", func(b *testing.B) {
		conf, err := core.Conform(spec, lib, bs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Merge(conf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AttachPair", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs := founding(b)
			p := pair(b, fs)
			b.StartTimer()
			if _, err := fs.AttachPair(p, archSpec.Schema.Name, libSpec.Schema.Name); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DetachMember", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fs := founding(b)
			if _, err := fs.AttachPair(pair(b, fs), archSpec.Schema.Name, libSpec.Schema.Name); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := fs.DetachMember(archSpec.Schema.Name); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Package experiments implements the reproduction harness: one function
// per experiment of DESIGN.md §6 (E1–E11 scenario reproductions, B1–B9
// measurements). cmd/interopbench prints their results; the root-level
// benchmarks wrap them with testing.B; EXPERIMENTS.md records their
// outputs against the paper's claims.
package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"interopdb/internal/baseline"
	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/store/chaos"
	"interopdb/internal/tm"
	"interopdb/internal/view"
	"interopdb/internal/workload"
)

// Check is one verifiable claim: what the paper states, what the engine
// produced, and whether they agree.
type Check struct {
	Name     string
	Expected string
	Measured string
	Pass     bool
}

// Result is the outcome of one experiment.
type Result struct {
	ID     string
	Title  string
	Checks []Check
}

// Passed reports whether every check passed.
func (r Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the result as a table fragment.
func (r Result) String() string {
	var b strings.Builder
	status := "PASS"
	if !r.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s — %s\n", r.ID, status, r.Title)
	for _, c := range r.Checks {
		mark := "ok"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-46s paper: %-34s measured: %s\n", mark, c.Name, c.Expected, c.Measured)
	}
	return b.String()
}

func check(name, expected, measured string, pass bool) Check {
	return Check{Name: name, Expected: expected, Measured: measured, Pass: pass}
}

// figure1 runs the Figure 1 integration once.
func figure1(opt fixture.Options) (*core.Result, error) {
	local, remote := fixture.Figure1Stores(opt)
	return core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
}

func personnel() (*core.Result, error) {
	db1, db2 := fixture.PersonnelStores()
	return core.Integrate(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), db1, db2, 1)
}

func findGlobal(res *core.Result, s string) *core.GlobalConstraint {
	for i := range res.Derivation.Global {
		if res.Derivation.Global[i].Expr.String() == s {
			return &res.Derivation.Global[i]
		}
	}
	return nil
}

// E1 reproduces the introduction's personnel example.
func E1() (Result, error) {
	r := Result{ID: "E1", Title: "intro example: averaged tariffs, subjective salary rule"}
	res, err := personnel()
	if err != nil {
		return r, err
	}
	gc := findGlobal(res, "trav_reimb in {12,17,22}")
	r.Checks = append(r.Checks, check("derived global tariff constraint",
		"trav_reimb ∈ {12,17,22}", measuredExpr(gc), gc != nil && gc.Scope == core.ScopeMerged))
	salaryLeaked := false
	for _, g := range res.Derivation.Global {
		if strings.Contains(g.Expr.String(), "salary") && g.Scope != core.ScopeLocalOnly {
			salaryLeaked = true
		}
	}
	r.Checks = append(r.Checks, check("salary rule not propagated",
		"subjective, DB1-local only", fmt.Sprintf("leaked=%v", salaryLeaked), !salaryLeaked))
	merged := 0
	var trav object.Value
	for _, g := range res.View.Objects {
		if g.Merged() {
			merged++
			trav, _ = g.Get("trav_reimb")
		}
	}
	r.Checks = append(r.Checks, check("merged employee's averaged tariff",
		"avg(20,24)=22", fmt.Sprintf("%v (merged=%d)", trav, merged),
		merged == 1 && trav != nil && trav.Equal(object.Int(22))))
	return r, nil
}

func measuredExpr(gc *core.GlobalConstraint) string {
	if gc == nil {
		return "(absent)"
	}
	return gc.Expr.String() + " [" + gc.Scope.String() + "]"
}

// E2 checks that Figure 1 parses and is enforced.
func E2() (Result, error) {
	r := Result{ID: "E2", Title: "Figure 1: both specifications parse, all constraints enforced"}
	lib, err := tm.ParseDatabase(tm.FigureOneCSLibrary)
	if err != nil {
		return r, err
	}
	bs, err := tm.ParseDatabase(tm.FigureOneBookseller)
	if err != nil {
		return r, err
	}
	nCons := func(s *tm.DatabaseSpec) int {
		n := len(s.Schema.DBCons)
		for _, c := range s.Schema.Classes() {
			n += len(c.Constraints)
		}
		return n
	}
	total := nCons(lib) + nCons(bs)
	r.Checks = append(r.Checks, check("constraints parsed",
		"13 (7 CSLibrary + 6 Bookseller incl. db1)", fmt.Sprintf("%d", total), total == 13))
	local, remote := fixture.Figure1Stores(fixture.Options{})
	vl, vr := local.CheckAll(), remote.CheckAll()
	r.Checks = append(r.Checks, check("fixture states consistent",
		"0 violations", fmt.Sprintf("%d local, %d remote", len(vl), len(vr)), len(vl)+len(vr) == 0))
	// Enforcement rejects a violating insert.
	_, err = remote.Insert("Item", map[string]object.Value{
		"isbn": object.Str("viol-1"), "shopprice": object.Real(1), "libprice": object.Real(2),
	})
	r.Checks = append(r.Checks, check("component DBMS enforces oc1",
		"libprice>shopprice rejected", fmt.Sprintf("err=%v", err != nil), err != nil))
	return r, nil
}

// E3 reproduces §3's derived constraint.
func E3() (Result, error) {
	r := Result{ID: "E3", Title: "§3: derived constraint from intraobject condition + oc2"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	derived := res.Derivation.DerivedOnSim["r3"]
	has := false
	for _, n := range derived {
		if n.String() == "rating >= 7" {
			has = true
		}
	}
	r.Checks = append(r.Checks, check("derived on r3-selected objects",
		"rating >= 7", fmt.Sprintf("present=%v", has), has))
	conflictFree := true
	for _, c := range res.Derivation.Conflicts {
		if c.Kind == core.ConflictStrictSim && c.Where == "rule r3" {
			conflictFree = false
		}
	}
	r.Checks = append(r.Checks, check("discrepancy with RefereedPubl.oc1 resolves",
		"rating>=7 ⊨ rating>=4, no conflict", fmt.Sprintf("conflictFree=%v", conflictFree), conflictFree))
	return r, nil
}

// E4 reproduces §4's conformation examples.
func E4() (Result, error) {
	r := Result{ID: "E4", Title: "§4: constraint conformation"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	var oc2, oc1 string
	var oc2Class string
	for _, con := range res.Conformed.Cons {
		switch con.Key {
		case core.ConKey{DB: "CSLibrary", Class: "Publication", Name: "oc2"}:
			oc2, oc2Class = con.Expr.String(), con.Class
		case core.ConKey{DB: "CSLibrary", Class: "RefereedPubl", Name: "oc1"}:
			oc1 = con.Expr.String()
		}
	}
	r.Checks = append(r.Checks, check("oc2 re-allocated to virtual class",
		"VirtPublisher: name in KNOWNPUBLISHERS",
		fmt.Sprintf("%s: %s", oc2Class, oc2),
		oc2Class == "VirtPublisher" && oc2 == "name in KNOWNPUBLISHERS"))
	r.Checks = append(r.Checks, check("RefereedPubl.oc1 scale-converted",
		"rating >= 4", oc1, oc1 == "rating >= 4"))
	return r, nil
}

// E5 reproduces §5.1.3's value-subjectivity counterexample.
func E5() (Result, error) {
	r := Result{ID: "E5", Title: "§5.1.3: value subjectivity forces constraint subjectivity"}
	res, err := figure1(fixture.Options{PriceConflict: true})
	if err != nil {
		return r, err
	}
	var g *core.GObj
	for _, o := range res.View.Objects {
		if ttl, ok := o.Get("title"); ok && ttl.Equal(object.Str("Price Conflict Book")) {
			g = o
		}
	}
	if g == nil {
		return r, fmt.Errorf("price conflict book missing")
	}
	lib, _ := g.Get("libprice")
	shop, _ := g.Get("shopprice")
	violates := false
	if lf, ok := object.AsFloat(lib); ok {
		if sf, ok := object.AsFloat(shop); ok {
			violates = lf > sf
		}
	}
	r.Checks = append(r.Checks, check("trust-fused state violates libprice<=shopprice",
		"(26,25): violated", fmt.Sprintf("(%v,%v): violated=%v", lib, shop, violates), violates))
	st := res.Spec.Status[core.ConKey{DB: "Bookseller", Class: "Item", Name: "oc1"}]
	st2 := res.Spec.Status[core.ConKey{DB: "CSLibrary", Class: "Publication", Name: "oc1"}]
	r.Checks = append(r.Checks, check("both price constraints classified subjective",
		"subjective/subjective", fmt.Sprintf("%v/%v", st2, st),
		st == core.Subjective && st2 == core.Subjective))
	return r, nil
}

// E6 reproduces §5.2.1's equality derivation.
func E6() (Result, error) {
	r := Result{ID: "E6", Title: "§5.2.1: equality derivation through avg"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	gc := findGlobal(res, "publisher.name = 'ACM' implies rating >= 5")
	r.Checks = append(r.Checks, check("paper's derived constraint",
		"ACM ⇒ rating >= 5 [merged]", measuredExpr(gc),
		gc != nil && gc.Derivation == "derived(avg)"))
	priceDerived := false
	for _, g := range res.Derivation.Global {
		if g.Scope == core.ScopeMerged &&
			(strings.Contains(g.Expr.String(), "libprice") || strings.Contains(g.Expr.String(), "shopprice")) {
			priceDerived = true
		}
	}
	r.Checks = append(r.Checks, check("no derivation from trust-ed price constraints",
		"none (conflict avoiding, condition 1)", fmt.Sprintf("derived=%v", priceDerived), !priceDerived))
	return r, nil
}

// E7 reproduces §5.2.1's strict-similarity repair.
func E7() (Result, error) {
	r := Result{ID: "E7", Title: "§5.2.1: strict similarity check and rule repair"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	okR3 := true
	for _, c := range res.Derivation.Conflicts {
		if c.Kind == core.ConflictStrictSim && c.Where == "rule r3" {
			okR3 = false
		}
	}
	r.Checks = append(r.Checks, check("original oc2: r3 valid",
		"rating>=7 ⊨ rating>=4", fmt.Sprintf("conflictFree=%v", okR3), okR3))

	weakSrc := strings.Replace(tm.FigureOneBookseller,
		"oc2: ref? = true implies rating >= 7",
		"oc2: ref? = true implies rating >= 3", 1)
	weak := tm.MustParseDatabase(weakSrc)
	ls := store.New(tm.Figure1Library().Schema, tm.Figure1Library().Consts)
	rs := store.New(weak.Schema, nil)
	res2, err := core.Integrate(tm.Figure1Library(), weak, tm.Figure1Integration(), ls, rs, 1)
	if err != nil {
		return r, err
	}
	var suggestion string
	for _, c := range res2.Derivation.Conflicts {
		if c.Kind != core.ConflictStrictSim || c.Where != "rule r3" {
			continue
		}
		for _, s := range c.Suggestions {
			if s.Kind == core.SuggestStrengthenRule {
				suggestion = s.NewRuleSrc
			}
		}
	}
	want := "R.ref? = true and R.rating >= 4"
	r.Checks = append(r.Checks, check("weakened oc2: repaired rule suggested",
		"Sim ⇐ ref?=true ∧ rating>=4", suggestion, strings.Contains(suggestion, want)))
	return r, nil
}

// E8 reproduces the approximate-similarity disjunction.
func E8() (Result, error) {
	r := Result{ID: "E8", Title: "§5.2.1: approximate similarity — disjunction on Cv"}
	localSpec := tm.MustParseDatabase("Database L\nClass Senior\n  attributes\n    name : string\n    age : int\n  object constraints\n    oc1: age >= 50\nend Senior\n")
	remoteSpec := tm.MustParseDatabase("Database R\nClass Junior\n  attributes\n    name : string\n    age : int\n  object constraints\n    oc1: age < 50\nend Junior\n")
	ispec := tm.MustParseIntegration("integration L imports R\nrule r1: Sim(J:Junior, Senior, Person) <= true\npropeq(Senior.age, Junior.age, id, id, any)\npropeq(Senior.name, Junior.name, id, id, any)\n")
	ls := store.New(localSpec.Schema, nil)
	rs := store.New(remoteSpec.Schema, nil)
	ls.MustInsert("Senior", map[string]object.Value{"name": object.Str("Ann"), "age": object.Int(61)})
	rs.MustInsert("Junior", map[string]object.Value{"name": object.Str("Bob"), "age": object.Int(30)})
	res, err := core.Integrate(localSpec, remoteSpec, ispec, ls, rs, 1)
	if err != nil {
		return r, err
	}
	dis := res.Derivation.GlobalFor("Person")
	got := "(absent)"
	if len(dis) > 0 {
		got = dis[0].Expr.String()
	}
	r.Checks = append(r.Checks, check("virtual superclass constraint",
		"Ω ∨ Ω′", got, len(dis) == 1 && strings.Contains(got, "or")))
	return r, nil
}

// E9 reproduces §5.2.2/§5.2.3 on Figure 1.
func E9() (Result, error) {
	r := Result{ID: "E9", Title: "§5.2.2–§5.2.3: class, key and database constraints"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	keyClasses := map[string]bool{}
	for _, gc := range res.Derivation.Global {
		if gc.Derivation == "key-propagation" {
			for _, c := range gc.Classes {
				keyClasses[c] = true
			}
		}
	}
	r.Checks = append(r.Checks, check("key constraints propagate (key-to-key rules)",
		"key isbn on Publication and Item",
		fmt.Sprintf("%v", sortedKeys(keyClasses)),
		keyClasses["Publication"] && keyClasses["Item"]))
	aggLeaked := false
	for _, gc := range res.Derivation.Global {
		s := gc.Expr.String()
		if strings.Contains(s, "avg") || strings.Contains(s, "sum") || strings.Contains(s, "forall") {
			aggLeaked = true
		}
	}
	r.Checks = append(r.Checks, check("class/database constraints stay subjective",
		"cc2, cc1(avg), db1 not propagated", fmt.Sprintf("leaked=%v", aggLeaked), !aggLeaked))
	return r, nil
}

// E10 reproduces Figure 2's emergent classification.
func E10() (Result, error) {
	r := Result{ID: "E10", Title: "Figure 2: emergent RefereedProceedings intersection class"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	var vs *core.VirtualSubclass
	for i := range res.View.VirtualSubclasses {
		if res.View.VirtualSubclasses[i].LocalClass == "RefereedPubl" {
			vs = &res.View.VirtualSubclasses[i]
		}
	}
	got := "(absent)"
	pass := false
	if vs != nil {
		got = fmt.Sprintf("%s with %d members", vs.Name, len(vs.MemberIDs))
		pass = len(vs.MemberIDs) == 3
	}
	r.Checks = append(r.Checks, check("virtual subclass of Proceedings and RefereedPubl",
		"3 members (vldb, caise, sigmod)", got, pass))
	return r, nil
}

// E11 checks the end-to-end pipeline artifacts.
func E11() (Result, error) {
	r := Result{ID: "E11", Title: "Figure 3: full pipeline report"}
	res, err := figure1(fixture.Options{})
	if err != nil {
		return r, err
	}
	rep := res.Report()
	wants := []string{"Property subjectivity", "Conformed constraints", "Global classes", "Global constraints", "Notes"}
	missing := 0
	for _, w := range wants {
		if !strings.Contains(rep, w) {
			missing++
		}
	}
	r.Checks = append(r.Checks, check("report covers all stages",
		"5 stage sections", fmt.Sprintf("%d present", len(wants)-missing), missing == 0))
	return r, nil
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// All runs E1–E11.
func All() ([]Result, error) {
	fns := []func() (Result, error){E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11}
	var out []Result
	for _, fn := range fns {
		r, err := fn()
		if err != nil {
			return out, fmt.Errorf("%s: %w", r.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// B-series measurements

// B1Row is one query-optimisation measurement. Cold times cover the
// first run of each mode — plan construction, index builds, and (for
// the optimised mode, when the cost gate lets it through) the solver's
// constraint phase. OptTime/BaseTime are steady-state per-operation
// times over plan-cache hits, where the constraint reasoning is
// amortised to zero.
type B1Row struct {
	Query       string
	OptScanned  int
	BaseScanned int
	Pruned      bool
	// Gated reports that the cost gate skipped the constraint phase:
	// the estimated serving cost could not pay for the solver, so the
	// optimised plan degenerates to the base plan instead of losing to
	// it (BENCH_3's B1 regression: 470µs "optimised" vs 82µs plain).
	Gated        bool
	OptTime      time.Duration // steady-state per op
	BaseTime     time.Duration // steady-state per op
	OptColdTime  time.Duration // first run (plan build)
	BaseColdTime time.Duration
}

// b1SteadyIters is the steady-state averaging window per mode.
const b1SteadyIters = 100

// B1 measures constraint-based query optimisation on a generated
// federation: cold (planning) and steady-state (plan-cached) times for
// the optimised and drop-all modes. The base mode runs first so shared
// index builds land in its cold time, making the optimised cold time a
// pure measurement of the (cost-gated) constraint phase.
func B1(books int) ([]B1Row, error) {
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = books, books
	local, remote := workload.Bibliographic(p)
	// The repaired specification (see tm.FigureOneIntegrationRepaired):
	// with the original r5 the engine withholds the Proceedings
	// constraints pending conflict resolution, so there is nothing to
	// optimise with — the paper's design loop repairs first.
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		return nil, err
	}
	e := view.New(res)
	queries := []view.Query{
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
		{Class: "Proceedings", Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 9")},
		{Class: "Item", Where: expr.MustParse("shopprice < 40")},
	}
	var rows []B1Row
	for _, q := range queries {
		runCold := func(useCons bool) (view.Stats, int, time.Duration, error) {
			e.UseConstraints = useCons
			t0 := time.Now()
			r, st, err := e.Run(q)
			return st, len(r), time.Since(t0), err
		}
		runSteady := func(useCons bool) (time.Duration, error) {
			e.UseConstraints = useCons
			t0 := time.Now()
			for i := 0; i < b1SteadyIters; i++ {
				if _, _, err := e.Run(q); err != nil {
					return 0, err
				}
			}
			return time.Since(t0) / b1SteadyIters, nil
		}
		baseStats, nBase, baseCold, err := runCold(false)
		if err != nil {
			return nil, err
		}
		optStats, nOpt, optCold, err := runCold(true)
		if err != nil {
			return nil, err
		}
		if nOpt != nBase {
			return nil, fmt.Errorf("optimisation changed answers: %d vs %d", nOpt, nBase)
		}
		baseSteady, err := runSteady(false)
		if err != nil {
			return nil, err
		}
		optSteady, err := runSteady(true)
		if err != nil {
			return nil, err
		}
		e.UseConstraints = true
		rows = append(rows, B1Row{
			Query: q.Where.String(), OptScanned: optStats.Scanned, BaseScanned: baseStats.Scanned,
			Pruned: optStats.PrunedEmpty, Gated: optStats.ConstraintGated,
			OptTime: optSteady, BaseTime: baseSteady,
			OptColdTime: optCold, BaseColdTime: baseCold,
		})
	}
	return rows, nil
}

// B2Row is one transaction-validation measurement.
type B2Row struct {
	ViolationRate float64
	Attempts      int
	RejectedEarly int
	LocalRejects  int
}

// B2 measures update validation: how many doomed subtransactions the
// global constraints stop before shipping.
func B2(attempts int, rates []float64) ([]B2Row, error) {
	var rows []B2Row
	for _, rate := range rates {
		p := workload.DefaultParams()
		p.LocalBooks, p.RemoteBooks = 500, 500
		local, remote := workload.Bibliographic(p)
		res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
		if err != nil {
			return nil, err
		}
		e := view.New(res)
		if err := bindMembers(e, local, remote); err != nil {
			return nil, err
		}
		row := B2Row{ViolationRate: rate, Attempts: attempts}
		for i := 0; i < attempts; i++ {
			doomed := float64(i%20)/20 < rate
			pub := object.Ref{DB: "Bookseller", OID: 2}
			ref := true
			if doomed {
				pub = object.Ref{DB: "Bookseller", OID: 1} // IEEE: oc1 demands ref?
				ref = false
			}
			attrs := map[string]object.Value{
				"title": object.Str(fmt.Sprintf("P%d", i)), "isbn": object.Str(fmt.Sprintf("tx-%d-%f", i, rate)),
				"publisher": pub,
				"shopprice": object.Real(30), "libprice": object.Real(25),
				"ref?": object.Bool(ref), "rating": object.Int(8),
			}
			ops := []view.Mutation{{Kind: view.MutInsert, Class: "Proceedings", Attrs: attrs}}
			rejs, _, err := e.Validate(context.Background(), ops)
			if err != nil {
				return nil, err
			}
			if len(rejs) > 0 {
				row.RejectedEarly++
				continue
			}
			if err := e.Ship(context.Background(), ops); err != nil {
				row.LocalRejects++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// B3Row is one integration-scale measurement. Duration is the fully
// sequential, cache-free run; DurationPar the default run (GOMAXPROCS
// worker pool + memoized entailment) over a fresh store pair.
type B3Row struct {
	Books        int
	Overlap      float64
	Objects      int
	Merged       int
	Duration     time.Duration
	DurationPar  time.Duration
	CacheHitRate float64
}

// Speedup is the sequential/parallel wall-time ratio.
func (r B3Row) Speedup() float64 {
	if r.DurationPar <= 0 {
		return 0
	}
	return float64(r.Duration) / float64(r.DurationPar)
}

// B3 measures integration wall time across sizes and overlaps,
// sequential vs parallel.
func B3(sizes []int, overlaps []float64) ([]B3Row, error) {
	var rows []B3Row
	for _, n := range sizes {
		for _, ov := range overlaps {
			p := workload.DefaultParams()
			p.LocalBooks, p.RemoteBooks = n, n
			p.Overlap = ov
			local, remote := workload.Bibliographic(p)
			t0 := time.Now()
			res, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(),
				local, remote, 1, core.Options{Parallelism: 1, NoMemo: true})
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			merged := 0
			for _, g := range res.View.Objects {
				if g.Merged() {
					merged++
				}
			}
			localP, remoteP := workload.Bibliographic(p)
			t0 = time.Now()
			resP, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(),
				localP, remoteP, 1, core.Options{})
			if err != nil {
				return nil, err
			}
			dPar := time.Since(t0)
			if resP.Report() != res.Report() {
				return nil, fmt.Errorf("B3 books=%d overlap=%v: parallel report diverged from sequential", n, ov)
			}
			rows = append(rows, B3Row{
				Books: n, Overlap: ov, Objects: len(res.View.Objects), Merged: merged,
				Duration: d, DurationPar: dPar,
				CacheHitRate: resP.Derivation.CacheStats().HitRate(),
			})
		}
	}
	return rows, nil
}

// B4Row is one derivation-cost measurement. Duration is sequential and
// cache-free; DurationPar the pooled, memoized run.
type B4Row struct {
	Constraints  int
	Duration     time.Duration
	DurationPar  time.Duration
	CacheHitRate float64
	Derived      int
}

// Speedup is the sequential/parallel wall-time ratio.
func (r B4Row) Speedup() float64 {
	if r.DurationPar <= 0 {
		return 0
	}
	return float64(r.Duration) / float64(r.DurationPar)
}

// B4 measures global-constraint derivation cost against the number of
// component constraints (synthetic single-class pair with k guarded
// bounds per side, all avg-fused).
func B4(counts []int) ([]B4Row, error) {
	var rows []B4Row
	for _, k := range counts {
		localSrc := &strings.Builder{}
		remoteSrc := &strings.Builder{}
		fmt.Fprintf(localSrc, "Database L\nClass C\n  attributes\n    k : string\n")
		fmt.Fprintf(remoteSrc, "Database R\nClass D\n  attributes\n    k : string\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(localSrc, "    p%d : int\n", i)
			fmt.Fprintf(remoteSrc, "    p%d : int\n", i)
		}
		fmt.Fprintf(localSrc, "  object constraints\n")
		fmt.Fprintf(remoteSrc, "  object constraints\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(localSrc, "    oc%d: p%d >= %d\n", i, i, i)
			fmt.Fprintf(remoteSrc, "    oc%d: p%d >= %d\n", i, i, i+2)
		}
		fmt.Fprintf(localSrc, "end C\n")
		fmt.Fprintf(remoteSrc, "end D\n")
		ispecSrc := &strings.Builder{}
		fmt.Fprintf(ispecSrc, "integration L imports R\nrule r1: Eq(A:C, B:D) <= A.k = B.k\npropeq(C.k, D.k, id, id, any)\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(ispecSrc, "propeq(C.p%d, D.p%d, id, id, avg)\n", i, i)
		}
		localSpec := tm.MustParseDatabase(localSrc.String())
		remoteSpec := tm.MustParseDatabase(remoteSrc.String())
		ispec := tm.MustParseIntegration(ispecSrc.String())
		ls := store.New(localSpec.Schema, nil)
		rs := store.New(remoteSpec.Schema, nil)
		t0 := time.Now()
		res, err := core.IntegrateOptions(localSpec, remoteSpec, ispec, ls, rs, 1,
			core.Options{Parallelism: 1, NoMemo: true})
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		t0 = time.Now()
		resP, err := core.IntegrateOptions(localSpec, remoteSpec, ispec, ls, rs, 1, core.Options{})
		if err != nil {
			return nil, err
		}
		dPar := time.Since(t0)
		if resP.Report() != res.Report() {
			return nil, fmt.Errorf("B4 k=%d: parallel report diverged from sequential", k)
		}
		derived := 0
		for _, gc := range res.Derivation.Global {
			if strings.HasPrefix(gc.Derivation, "derived(") {
				derived++
			}
		}
		rows = append(rows, B4Row{
			Constraints: 2 * k, Duration: d, DurationPar: dPar,
			CacheHitRate: resP.Derivation.CacheStats().HitRate(), Derived: derived,
		})
	}
	return rows, nil
}

// B5Result compares against the baselines.
type B5Result struct {
	ClassBasedPrecision float64
	ClassBasedRecall    float64
	UnionAllFalseRej    int
	UnionAllTotal       int
}

// B5 compares instance-based, class-based and union-all handling.
func B5() (B5Result, error) {
	var out B5Result
	p := workload.DefaultParams()
	p.LocalBooks, p.RemoteBooks = 500, 500
	local, remote := workload.Bibliographic(p)
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1Integration(), local, remote, 1)
	if err != nil {
		return out, err
	}
	cb := baseline.ClassBasedClassification(res, []baseline.ClassCorrespondence{
		{LocalClass: "RefereedPubl", RemoteClass: "Proceedings"},
		{LocalClass: "Publication", RemoteClass: "Item"},
	})
	q := baseline.CompareClassification(res, cb, []string{"RefereedPubl", "Publication"})
	out.ClassBasedPrecision = q.Precision()
	out.ClassBasedRecall = q.Recall()

	db1, db2 := workload.Personnel(workload.PersonnelParams{Seed: 7, DB1: 300, DB2: 300, Overlap: 0.5})
	pres, err := core.Integrate(tm.Personnel1(), tm.Personnel2(), tm.PersonnelIntegration(), db1, db2, 1)
	if err != nil {
		return out, err
	}
	out.UnionAllFalseRej, out.UnionAllTotal = baseline.FalseRejects(pres, "DB1.Employee")
	return out, nil
}

// B6Row is one conflict-detection measurement.
type B6Row struct {
	WeakenedConstraints int
	Conflicts           int
	Suggestions         int
}

// B6 injects progressively weakened constraints and counts detected
// conflicts and generated repair suggestions.
func B6() ([]B6Row, error) {
	replacements := [][2]string{
		{"oc2: ref? = true implies rating >= 7", "oc2: ref? = true implies rating >= 3"},
		{"oc3: publisher.name = 'ACM' implies rating >= 6", "oc3: publisher.name = 'ACM' implies rating >= 1"},
		{"oc1: publisher.name = 'IEEE' implies ref? = true", "oc1: publisher.name = 'IEEE' implies rating >= 1"},
	}
	var rows []B6Row
	for k := 0; k <= len(replacements); k++ {
		src := tm.FigureOneBookseller
		for i := 0; i < k; i++ {
			src = strings.Replace(src, replacements[i][0], replacements[i][1], 1)
		}
		bs := tm.MustParseDatabase(src)
		ls := store.New(tm.Figure1Library().Schema, tm.Figure1Library().Consts)
		rs := store.New(bs.Schema, nil)
		res, err := core.Integrate(tm.Figure1Library(), bs, tm.Figure1Integration(), ls, rs, 1)
		if err != nil {
			return nil, err
		}
		sugg := 0
		for _, c := range res.Derivation.Conflicts {
			sugg += len(c.Suggestions)
		}
		rows = append(rows, B6Row{WeakenedConstraints: k, Conflicts: len(res.Derivation.Conflicts), Suggestions: sugg})
	}
	return rows, nil
}

// B7Row is one query-serving measurement: the indexed+compiled fast
// path (extent indexes answer sargable conjuncts, the residual is a
// compiled predicate, key uniqueness probes an incremental index)
// against the pure interpreter scan on the same engine and extent.
type B7Row struct {
	Scale     int
	Extent    int           // extent size of the probed class
	Kind      string        // equality | range | validate-insert
	Detail    string        // query text or probe description
	ScanTime  time.Duration // per operation, UseIndexes = false
	FastTime  time.Duration // per operation, UseIndexes = true
	Rows      int           // result rows (queries only)
	Scanned   int           // objects evaluated on the fast path
	IndexHits int
}

// Speedup is the scan/fast wall-time ratio.
func (r B7Row) Speedup() float64 {
	if r.FastTime <= 0 {
		return 0
	}
	return float64(r.ScanTime) / float64(r.FastTime)
}

// B7 measures query serving and insert validation over the scaled
// Figure 1 fixture. Each operation runs iters times per mode; answers
// are cross-checked between modes before timing.
func B7(scales []int, iters int) ([]B7Row, error) {
	var rows []B7Row
	for _, scale := range scales {
		local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
		res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
		if err != nil {
			return nil, err
		}
		e := view.New(res)
		eqIsbn := fmt.Sprintf("vldb96-c%d", max(1, scale/2))
		if scale == 0 {
			eqIsbn = "vldb96"
		}
		queries := []view.Query{
			{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = '%s'", eqIsbn))},
			{Class: "Item", Where: expr.MustParse("shopprice <= 20")},
			{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")},
		}
		kinds := []string{"equality", "range", "range"}
		for qi, q := range queries {
			e.UseIndexes = true
			fastRows, fastStats, err := e.Run(q)
			if err != nil {
				return nil, err
			}
			e.UseIndexes = false
			scanRows, _, err := e.Run(q)
			if err != nil {
				return nil, err
			}
			if len(fastRows) != len(scanRows) {
				return nil, fmt.Errorf("B7 scale=%d %q: indexed path changed answers: %d vs %d",
					scale, q.Where, len(fastRows), len(scanRows))
			}
			timeOp := func(useIdx bool) (time.Duration, error) {
				e.UseIndexes = useIdx
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					if _, _, err := e.Run(q); err != nil {
						return 0, fmt.Errorf("B7 scale=%d %q: %w", scale, q.Where, err)
					}
				}
				return time.Since(t0) / time.Duration(iters), nil
			}
			scanT, err := timeOp(false)
			if err != nil {
				return nil, err
			}
			fastT, err := timeOp(true)
			if err != nil {
				return nil, err
			}
			e.UseIndexes = true
			rows = append(rows, B7Row{
				Scale: scale, Extent: len(res.View.Extent(q.Class)),
				Kind: kinds[qi], Detail: q.Where.String(),
				ScanTime: scanT, FastTime: fastT,
				Rows: len(fastRows), Scanned: fastStats.Scanned, IndexHits: fastStats.IndexHits,
			})
		}
		// Insert validation through Validate, the path requests take. The
		// key is fresh — the insert that goes on to ship — which is where
		// the key index answers "no holder" without the extent scan.
		probe := []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title": object.Str("B7 probe"), "isbn": object.Str("b7-fresh-key"),
			"shopprice": object.Real(10), "libprice": object.Real(5),
		}}}
		timeVal := func(useIdx bool) (time.Duration, error) {
			e.UseIndexes = useIdx
			t0 := time.Now()
			for i := 0; i < iters; i++ {
				if rejs, _, err := e.Validate(context.Background(), probe); err != nil || len(rejs) != 0 {
					return 0, fmt.Errorf("B7 scale=%d validate-insert: rejections=%v err=%v", scale, rejs, err)
				}
			}
			return time.Since(t0) / time.Duration(iters), nil
		}
		scanT, err := timeVal(false)
		if err != nil {
			return nil, err
		}
		fastT, err := timeVal(true)
		if err != nil {
			return nil, err
		}
		e.UseIndexes = true
		rows = append(rows, B7Row{
			Scale: scale, Extent: len(res.View.Extent("Item")),
			Kind: "validate-insert", Detail: "fresh-key insert into Item via Validate",
			ScanTime: scanT, FastTime: fastT,
		})
	}
	return rows, nil
}

// B8Row is one mutation-throughput measurement over the scaled Figure 1
// fixture (DESIGN.md §7): shipping N one-element batches versus one
// N-element batch through the same Ship (the local manager validates once
// per commit, so batching amortises the deferred CheckAll), and the
// constraint×row work of a delta-restricted Validate versus exhaustive
// re-validation.
type B8Row struct {
	Scale int
	Mode  string // "singleton-inserts", "batched-tx", "validate-delta"
	Ops   int
	Total time.Duration
	PerOp time.Duration
	// Validation-work comparison, set on validate-delta rows only.
	DeltaPairs int
	FullPairs  int
}

// Throughput is the measured mutation rate in operations per second.
func (r B8Row) Throughput() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Total.Seconds()
}

// B8 measures the mutation lifecycle at each fixture scale. Both
// shipping modes run against fresh, identical integrations; the final
// extents are cross-checked before the timings are reported.
func B8(scales []int, batch int) ([]B8Row, error) {
	var rows []B8Row
	for _, scale := range scales {
		build := func() (*view.Engine, *store.Store, error) {
			local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
			res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
			if err != nil {
				return nil, nil, err
			}
			e := view.New(res)
			return e, remote, bindMembers(e, local, remote)
		}
		mkAttrs := func(remote *store.Store, i int) map[string]object.Value {
			pub := remote.Extent("Publisher")[0]
			return map[string]object.Value{
				"title": object.Str(fmt.Sprintf("B8 insert %d", i)), "isbn": object.Str(fmt.Sprintf("b8-%d-%d", scale, i)),
				"publisher": object.Ref{DB: remote.Name(), OID: pub.OID()},
				"shopprice": object.Real(20), "libprice": object.Real(15),
			}
		}

		mkOps := func(remote *store.Store) []view.Mutation {
			ops := make([]view.Mutation, batch)
			for i := range ops {
				ops[i] = view.Mutation{Kind: view.MutInsert, Class: "Item", Attrs: mkAttrs(remote, i)}
			}
			return ops
		}

		// Mode 1: N one-element batches, one local commit (and one
		// deferred local validation) each.
		eS, remoteS, err := build()
		if err != nil {
			return nil, err
		}
		ops := mkOps(remoteS)
		t0 := time.Now()
		for i := range ops {
			if err := eS.Ship(context.Background(), ops[i:i+1]); err != nil {
				return nil, fmt.Errorf("B8 scale=%d singleton insert %d: %w", scale, i, err)
			}
		}
		singleton := time.Since(t0)

		// Mode 2: one N-element batch, one local commit total.
		eB, remoteB, err := build()
		if err != nil {
			return nil, err
		}
		ops = mkOps(remoteB)
		t0 = time.Now()
		if err := eB.Ship(context.Background(), ops); err != nil {
			return nil, fmt.Errorf("B8 scale=%d batched tx: %w", scale, err)
		}
		batched := time.Since(t0)

		// Both modes must converge to the same integrated state.
		nS := len(eS.Classes())
		nB := len(eB.Classes())
		if nS != nB {
			return nil, fmt.Errorf("B8 scale=%d: modes diverged: %d vs %d classes", scale, nS, nB)
		}
		sRows, _, err := eS.Run(view.Query{Class: "Item"})
		if err != nil {
			return nil, err
		}
		bRows, _, err := eB.Run(view.Query{Class: "Item"})
		if err != nil {
			return nil, err
		}
		if len(sRows) != len(bRows) {
			return nil, fmt.Errorf("B8 scale=%d: modes diverged: %d vs %d Item rows", scale, len(sRows), len(bRows))
		}

		// Validation work: delta-restricted update check vs full sweep.
		// Both are idempotent reads, so each is averaged over several
		// iterations — a single ~30µs sample is too noisy for the
		// benchcompare gate.
		var target int
		for _, g := range eB.Result().View.Extent("Proceedings") {
			if v, ok := g.Get("isbn"); ok && v.Equal(object.Str("vldb96")) {
				target = g.ID
			}
		}
		const deltaIters, fullIters = 20, 3
		var delta, full view.ValidateStats
		t0 = time.Now()
		for i := 0; i < deltaIters; i++ {
			_, delta, err = eB.Validate(context.Background(), []view.Mutation{{
				Kind: view.MutUpdate, Class: "Proceedings", ID: target, Attrs: map[string]object.Value{"ref?": object.Bool(true)},
			}})
			if err != nil {
				return nil, fmt.Errorf("B8 scale=%d validate: %w", scale, err)
			}
		}
		deltaT := time.Since(t0) / deltaIters
		t0 = time.Now()
		for i := 0; i < fullIters; i++ {
			_, full = eB.CheckAll()
		}
		fullT := time.Since(t0) / fullIters

		rows = append(rows,
			B8Row{Scale: scale, Mode: "singleton-inserts", Ops: batch, Total: singleton, PerOp: singleton / time.Duration(batch)},
			B8Row{Scale: scale, Mode: "batched-tx", Ops: batch, Total: batched, PerOp: batched / time.Duration(batch)},
			B8Row{Scale: scale, Mode: "validate-delta", Ops: 1, Total: deltaT, PerOp: deltaT,
				DeltaPairs: delta.PairsChecked, FullPairs: full.PairsChecked},
			B8Row{Scale: scale, Mode: "validate-full", Ops: 1, Total: fullT, PerOp: fullT,
				DeltaPairs: delta.PairsChecked, FullPairs: full.PairsChecked},
		)
	}
	return rows, nil
}

// B9Row is one concurrent-serving measurement: aggregate query
// throughput with N reader goroutines hammering the lock-free snapshot
// path while a writer ships mutation batches, plus the plan-cache hit
// rate and residual solver work the readers induced.
type B9Row struct {
	Readers       int
	Ops           int           // total queries served
	Total         time.Duration // wall time for the reader pool
	PerOp         time.Duration // wall time × readers / ops (per-query cost)
	Mutations     int           // Ship batches committed during the run
	PlanHitRate   float64
	SolverQueries int64 // planner solver calls during the reader phase
}

// Throughput is the aggregate serving rate in queries per second.
func (r B9Row) Throughput() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Total.Seconds()
}

// B9 measures concurrent-reader serving over the scaled Figure 1
// fixture: reader goroutines run a fixed query mix against the
// published snapshot (Run takes no lock) while one writer ships
// batches that republish it. Row answers are cross-checked against the
// single-threaded engine before timing; on a multi-core host the
// aggregate throughput scales with the reader count (CI is single-core,
// so only the correctness half is asserted there — wall-clock scaling
// is reported, not gated).
func B9(scale, readers, opsPerReader int) (B9Row, error) {
	row := B9Row{Readers: readers}
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		return row, err
	}
	e := view.New(res)
	if err := bindMembers(e, local, remote); err != nil {
		return row, err
	}
	queries := []view.Query{
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 20")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")},
		{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
	}
	// Warm plans and pin the expected answer sizes single-threaded.
	want := make([]int, len(queries))
	for i, q := range queries {
		rows, _, err := e.Run(q)
		if err != nil {
			return row, err
		}
		want[i] = len(rows)
	}

	statsBefore := e.CacheStats()
	var readerWG, writerWG sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	var mutations atomic.Int64

	// Writer: ship small insert batches until the readers finish. The
	// inserted items are priced outside every probed range, so the
	// readers' expected answers stay fixed across republications.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ops := []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
				"title":     object.Str(fmt.Sprintf("b9-%d-%d", readers, i)),
				"isbn":      object.Str(fmt.Sprintf("b9-%d-%d", readers, i)),
				"publisher": object.Ref{DB: remote.Name(), OID: 2},
				"shopprice": object.Real(50), "libprice": object.Real(40),
			}}}
			if err := e.Ship(context.Background(), ops); err != nil {
				errs <- fmt.Errorf("B9 writer batch %d: %w", i, err)
				return
			}
			mutations.Add(1)
		}
	}()

	t0 := time.Now()
	for w := 0; w < readers; w++ {
		readerWG.Add(1)
		go func(w int) {
			defer readerWG.Done()
			for i := 0; i < opsPerReader; i++ {
				qi := (w + i) % len(queries)
				rows, _, err := e.Run(queries[qi])
				if err != nil {
					errs <- fmt.Errorf("B9 reader %d: %w", w, err)
					return
				}
				if len(rows) != want[qi] {
					errs <- fmt.Errorf("B9 reader %d: query %d served %d rows, want %d",
						w, qi, len(rows), want[qi])
					return
				}
			}
		}(w)
	}
	readerWG.Wait()
	row.Total = time.Since(t0)
	close(stop)
	writerWG.Wait()

	close(errs)
	for err := range errs {
		return row, err
	}
	row.Ops = readers * opsPerReader
	row.Mutations = int(mutations.Load())
	statsAfter := e.CacheStats()
	hits := statsAfter.PlanHits - statsBefore.PlanHits
	misses := statsAfter.PlanMisses - statsBefore.PlanMisses
	if hits+misses > 0 {
		row.PlanHitRate = float64(hits) / float64(hits+misses)
	}
	row.SolverQueries = statsAfter.SolverQueries - statsBefore.SolverQueries
	if row.Ops > 0 {
		row.PerOp = time.Duration(int64(row.Total) * int64(readers) / int64(row.Ops))
	}
	return row, nil
}

// B9VRow is one reader-scaling measurement over the multi-version
// snapshot ring: aggregate read throughput with N readers against a
// writer pinned to a FIXED write rate, plus the ring-health high-water
// marks sampled during the run. B9 lets its writer free-run, so its
// write pressure grows with the run length; B9V holds writes constant
// across reader counts, isolating reader-side scaling — on a multi-core
// host throughput grows near-linearly with the reader count, and the
// sampled reclaim depth stays bounded regardless.
type B9VRow struct {
	Readers int
	Ops     int           // total queries served
	Total   time.Duration // wall time for the reader pool
	PerOp   time.Duration // wall time × readers / ops (per-query cost)
	// Mutations counts the writes the ticker shipped during the reader
	// phase; WriteInterval is the fixed tick between them.
	Mutations     int
	WriteInterval time.Duration
	PlanHitRate   float64
	// MaxChainVersions is the sampled high-water mark of retired class
	// versions still chained (the reclaim depth); MaxLag the worst
	// sampled reader lag in versions. Both bounded by the epoch
	// protocol, not by the mutation count.
	MaxChainVersions int
	MaxLag           uint64
	// Coalesced / Truncated are the run's deltas of the ring's
	// publication-coalescing and version-excision counters.
	Coalesced int64
	Truncated int64
}

// Throughput is the aggregate serving rate in queries per second.
func (r B9VRow) Throughput() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Total.Seconds()
}

// B9V measures reader scaling at a fixed write rate over the scaled
// Figure 1 fixture: a ticker-driven writer ships one singleton insert
// per interval (republishing through the per-class delta path) while N
// reader goroutines run the B9 query mix against pinned snapshots; a
// sampler tracks the ring's reclaim depth and reader lag throughout.
// Row answers are cross-checked against the warmed single-threaded
// answers before timing, exactly like B9.
func B9V(scale, readers, opsPerReader int, writeInterval time.Duration) (B9VRow, error) {
	row := B9VRow{Readers: readers, WriteInterval: writeInterval}
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		return row, err
	}
	e := view.New(res)
	if err := bindMembers(e, local, remote); err != nil {
		return row, err
	}
	queries := []view.Query{
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 20")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")},
		{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		rows, _, err := e.Run(q)
		if err != nil {
			return row, err
		}
		want[i] = len(rows)
	}

	statsBefore := e.CacheStats()
	ringBefore := e.RingStats()
	var readerWG, auxWG sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	var mutations atomic.Int64

	// Writer: one insert per tick, priced outside every probed range so
	// the readers' expected answers stay fixed across republications.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		tick := time.NewTicker(writeInterval)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			attrs := map[string]object.Value{
				"title":     object.Str(fmt.Sprintf("b9v-%d-%d", readers, i)),
				"isbn":      object.Str(fmt.Sprintf("b9v-%d-%d", readers, i)),
				"publisher": object.Ref{DB: remote.Name(), OID: 2},
				"shopprice": object.Real(50), "libprice": object.Real(40),
			}
			if err := e.Ship(context.Background(), []view.Mutation{{Kind: view.MutInsert, Class: "Item", Attrs: attrs}}); err != nil {
				errs <- fmt.Errorf("B9V writer insert %d: %w", i, err)
				return
			}
			mutations.Add(1)
		}
	}()

	// Sampler: ring-health high-water marks while the run is live.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			st := e.RingStats()
			if st.ChainVersions > row.MaxChainVersions {
				row.MaxChainVersions = st.ChainVersions
			}
			if st.MaxLag > row.MaxLag {
				row.MaxLag = st.MaxLag
			}
		}
	}()

	t0 := time.Now()
	for w := 0; w < readers; w++ {
		readerWG.Add(1)
		go func(w int) {
			defer readerWG.Done()
			for i := 0; i < opsPerReader; i++ {
				qi := (w + i) % len(queries)
				rows, _, err := e.Run(queries[qi])
				if err != nil {
					errs <- fmt.Errorf("B9V reader %d: %w", w, err)
					return
				}
				if len(rows) != want[qi] {
					errs <- fmt.Errorf("B9V reader %d: query %d served %d rows, want %d",
						w, qi, len(rows), want[qi])
					return
				}
			}
		}(w)
	}
	readerWG.Wait()
	row.Total = time.Since(t0)
	close(stop)
	auxWG.Wait()

	close(errs)
	for err := range errs {
		return row, err
	}
	row.Ops = readers * opsPerReader
	row.Mutations = int(mutations.Load())
	statsAfter := e.CacheStats()
	hits := statsAfter.PlanHits - statsBefore.PlanHits
	misses := statsAfter.PlanMisses - statsBefore.PlanMisses
	if hits+misses > 0 {
		row.PlanHitRate = float64(hits) / float64(hits+misses)
	}
	ringAfter := e.RingStats()
	row.Coalesced = ringAfter.Coalesced - ringBefore.Coalesced
	row.Truncated = ringAfter.Truncated - ringBefore.Truncated
	if row.Ops > 0 {
		row.PerOp = time.Duration(int64(row.Total) * int64(readers) / int64(row.Ops))
	}
	return row, nil
}

// B10Row is one federation membership-change measurement.
type B10Row struct {
	Scale int
	// Attach is the wall time of the incremental third-member attach:
	// the new pair's integration plus the graft and the single scoped
	// republication, against a live, warmed federation.
	Attach time.Duration
	// Reintegrate is the wall time of building the same three-member
	// federation from scratch (both pair integrations, fresh memo,
	// fresh engine).
	Reintegrate time.Duration
	// PlanSurvival is the fraction of warmed query shapes on classes
	// untouched by the attach that are still served from the plan cache
	// afterwards.
	PlanSurvival float64
	// AttachSolver counts the reasoning computations the incremental
	// attach performed; FullSolver the total a from-scratch rebuild
	// performs. Their gap is the derivation work membership scoping
	// avoids.
	AttachSolver int64
	FullSolver   int64
	// Publishes counts snapshots the membership change published
	// (always 1: readers see whole pre- or post-membership states).
	Publishes int64
}

// Speedup is the re-integration/attach wall-time ratio.
func (r B10Row) Speedup() float64 {
	if r.Attach <= 0 {
		return 0
	}
	return float64(r.Reintegrate) / float64(r.Attach)
}

// b10AttachArchive mirrors interopdb.Federation's incremental attach on
// internal state: integrate the CSLibrary/UnivArchive pair (sharing the
// federation memo when the typings agree) and graft it under the
// engine's Rebind. It returns the pair derivation's reasoning misses.
func b10AttachArchive(fs *core.FedState, e *view.Engine, lib, arch *store.Store, memo *logic.Memo, opts core.Options) (int64, error) {
	pspec, err := core.Compile(tm.Figure1Library(), tm.Figure1UnivArchive(), tm.Figure1ArchiveIntegration())
	if err != nil {
		return 0, err
	}
	pspec.Seed = 1
	conf, err := core.ConformOptions(pspec, lib, arch, opts)
	if err != nil {
		return 0, err
	}
	pv, err := core.Merge(conf)
	if err != nil {
		return 0, err
	}
	dopts := opts
	dopts.Memo = nil
	before := memo.Stats()
	if ck := fs.Res.Derivation.Checker; ck != nil && core.TypesCompatible(ck.Types, conf.Types) {
		dopts.Memo = memo
	}
	pairRes := &core.Result{Spec: pspec, Conformed: conf, View: pv, Derivation: core.DeriveOptions(pv, dopts)}
	solver := pairRes.Derivation.CacheStats().Misses
	if dopts.Memo != nil {
		solver -= before.Misses
	}
	err = e.Rebind(func() (changed, removed []string, err error) {
		changed, err = fs.AttachPair(pairRes, "UnivArchive", "CSLibrary")
		return changed, nil, err
	})
	return solver, err
}

// B10 measures federation membership changes on the scaled Figure 1
// fixture: incremental third-member attach against a live, warmed
// two-member federation versus a full three-member re-integration from
// scratch, the plan-cache survival rate for classes the attach does not
// touch, and the snapshot-publication count (one per membership
// change). The incremental and from-scratch federations are
// cross-checked to identical federated reports before timing.
func B10(scales []int) ([]B10Row, error) {
	var out []B10Row
	untouchedQs := []view.Query{
		{Class: "Publisher", Where: expr.MustParse("location = 'Berlin'")},
		{Class: "Publisher", Where: expr.MustParse("name = 'IEEE'")},
		{Class: "Monograph", Where: expr.MustParse("shopprice < 95")},
	}
	for _, scale := range scales {
		row := B10Row{Scale: scale}

		// Live two-member federation, plans warmed.
		memo := logic.NewMemo()
		opts := core.Options{Memo: memo}
		lib, bs := fixture.Figure1Stores(fixture.Options{Scale: scale})
		res, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1, opts)
		if err != nil {
			return nil, err
		}
		pair1Solver := res.Derivation.CacheStats().Misses
		fs := core.NewFedState(res, "CSLibrary", opts, memo)
		e := view.New(res)
		for _, q := range untouchedQs {
			if _, _, err := e.Run(q); err != nil {
				return nil, err
			}
		}

		arch := fixture.ArchiveStore(fixture.Options{Scale: scale})
		pubBefore := e.CacheStats().Publishes
		t0 := time.Now()
		attachSolver, err := b10AttachArchive(fs, e, lib, arch, memo, opts)
		if err != nil {
			return nil, err
		}
		row.Attach = time.Since(t0)
		row.AttachSolver = attachSolver
		row.Publishes = e.CacheStats().Publishes - pubBefore

		surv := 0
		for _, q := range untouchedQs {
			_, st, err := e.Run(q)
			if err != nil {
				return nil, err
			}
			if st.PlanCached {
				surv++
			}
		}
		row.PlanSurvival = float64(surv) / float64(len(untouchedQs))

		// Full re-integration from scratch. The component stores are
		// built OUTSIDE the timed region — the incremental side starts
		// from existing stores too, and the comparison must time
		// integration work only.
		memo2 := logic.NewMemo()
		opts2 := core.Options{Memo: memo2}
		lib2, bs2 := fixture.Figure1Stores(fixture.Options{Scale: scale})
		arch2 := fixture.ArchiveStore(fixture.Options{Scale: scale})
		t0 = time.Now()
		res2, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib2, bs2, 1, opts2)
		if err != nil {
			return nil, err
		}
		fs2 := core.NewFedState(res2, "CSLibrary", opts2, memo2)
		e2 := view.New(res2)
		fullSolver, err := b10AttachArchive(fs2, e2, lib2, arch2, memo2, opts2)
		if err != nil {
			return nil, err
		}
		row.Reintegrate = time.Since(t0)
		row.FullSolver = pair1Solver + fullSolver

		if got, want := fs.Report(), fs2.Report(); got != want {
			return nil, fmt.Errorf("B10 scale %d: incremental and from-scratch federations diverge", scale)
		}
		out = append(out, row)
	}
	return out, nil
}

// B12Result is the fault-tolerance serving measurement: a mixed
// cross-member workload under seeded transient commit faults, a full
// member outage with degraded serving, and the reconvergence cost once
// the member heals. The acceptance property is that transient faults at
// the configured rate are absorbed entirely by the retry layer — zero
// partial commits surface to callers — and that an outage past the
// retry budget degrades to fast-failing writes and snapshot reads
// instead of errors.
type B12Result struct {
	Scale   int
	Batches int
	Rate    float64

	// Faulty phase: seeded transient commit faults at Rate on the
	// library member, absorbed by capped-backoff retries.
	Injected        int           // faults the chaos wrapper injected
	Retries         int64         // commit retries the engine burned
	ClientErrors    int           // errors surfaced to callers, any kind
	PartialSurfaced int           // ErrPartialCommit surfaced to callers — must stay 0
	FaultyTotal     time.Duration // wall time of the faulted workload
	FaultFreeTotal  time.Duration // same workload, no injection

	// Outage phase: the library member stays down past the retry
	// budget, stranding one batch in the commit journal.
	DegradedReads  int // queries answered while the member was quarantined
	WriteFastFails int // writes refused with ErrMemberUnavailable, no peer commit

	// Reconvergence: the member heals and one reconcile pass completes
	// the stranded batch into the served view.
	Reconverge time.Duration
	Completed  int // journal entries the reconcile pass completed
}

// Overhead is the faulted/fault-free wall-time ratio for the same
// workload — the serving bill of absorbing the fault rate.
func (r B12Result) Overhead() float64 {
	if r.FaultFreeTotal <= 0 {
		return 0
	}
	return float64(r.FaultyTotal) / float64(r.FaultFreeTotal)
}

// bindMembers binds the member backends to the engine as its store
// registry — what a Federation does for the engine it owns — so Ship
// routes to them.
func bindMembers(e *view.Engine, members ...store.Backend) error {
	reg := store.NewRegistry()
	for _, m := range members {
		if err := reg.Add(m); err != nil {
			return err
		}
	}
	e.BindStores(reg)
	return nil
}

// b12Engine builds a two-member federation with the library member
// wrapped in a chaos backend, routed shipping bound, and retries that
// keep their capped-exponential shape but take no wall clock.
func b12Engine(scale int, libOpts chaos.Options) (*view.Engine, *chaos.Backend, string, int, error) {
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1)
	if err != nil {
		return nil, nil, "", 0, err
	}
	e := view.New(res)
	cb := chaos.Wrap(lib, libOpts)
	if err := bindMembers(e, cb, bs); err != nil {
		return nil, nil, "", 0, err
	}
	e.Retry = view.RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}}
	vldbID := -1
	for _, g := range res.View.Objects {
		if v, ok := g.Get("isbn"); ok && v.Equal(object.Str("vldb96")) {
			vldbID = g.ID
			break
		}
	}
	if vldbID < 0 {
		return nil, nil, "", 0, fmt.Errorf("B12: vldb96 not in the integrated view")
	}
	return e, cb, bs.Name(), vldbID, nil
}

// b12Batch is one cross-member batch: a bookseller-routed insert plus a
// title update of the merged vldb96 object, which fans to a constituent
// in BOTH members — the partial-commit shape.
func b12Batch(bsName string, vldbID int, prefix string, i int) []view.Mutation {
	key := fmt.Sprintf("%s-%d", prefix, i)
	return []view.Mutation{
		{Kind: view.MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title":     object.Str("B12 " + key),
			"isbn":      object.Str(key),
			"publisher": object.Ref{DB: bsName, OID: 2},
			"shopprice": object.Real(50), "libprice": object.Real(40),
		}},
		{Kind: view.MutUpdate, Class: "Item", ID: vldbID, Attrs: map[string]object.Value{
			"title": object.Str(fmt.Sprintf("VLDB 96 Proceedings %s", key)),
		}},
	}
}

// B12 measures serving under member faults on the scaled Figure 1
// fixture. Phase one ships cross-member batches while the library
// member's commits fail transiently at the seeded rate: the engine's
// retry layer must absorb every fault (zero partial commits surfaced),
// and the wall-time ratio against a fault-free run of the same workload
// is the absorption bill. Phase two forces the member down past the
// retry budget: the stranded batch is journaled, subsequent writes
// fast-fail before any peer commits, and reads keep serving from the
// last-good snapshot. Phase three heals the member and times the
// reconcile pass that completes the stranded batch into the view.
func B12(scale, batches int, rate float64) (B12Result, error) {
	r := B12Result{Scale: scale, Batches: batches, Rate: rate}
	ctx := context.Background()

	// Fault-free control run first: same engine shape, no injection.
	ce, _, cbs, cid, err := b12Engine(scale, chaos.Options{})
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		if err := ce.Ship(ctx, b12Batch(cbs, cid, "b12", i)); err != nil {
			return r, fmt.Errorf("B12 fault-free batch %d: %w", i, err)
		}
	}
	r.FaultFreeTotal = time.Since(t0)

	// Faulted run: seeded transient faults on library commit attempts.
	e, cb, bsName, vldbID, err := b12Engine(scale, chaos.Options{Seed: 12, TransientRate: rate})
	if err != nil {
		return r, err
	}
	fs0 := e.FaultStats()
	t0 = time.Now()
	for i := 0; i < batches; i++ {
		err := e.Ship(ctx, b12Batch(bsName, vldbID, "b12", i))
		if err != nil {
			r.ClientErrors++
			if errors.Is(err, view.ErrPartialCommit) {
				r.PartialSurfaced++
			}
		}
	}
	r.FaultyTotal = time.Since(t0)
	fs1 := e.FaultStats()
	r.Injected = cb.Stats().Transient
	r.Retries = fs1.Retries - fs0.Retries

	// The faulted and fault-free federations must have converged to the
	// same served extent — the faults were absorbed, not dropped.
	count := func(e *view.Engine) (int, error) {
		rows, _, err := e.Run(view.Query{Class: "Item"})
		return len(rows), err
	}
	nFaulty, err := count(e)
	if err != nil {
		return r, err
	}
	nClean, err := count(ce)
	if err != nil {
		return r, err
	}
	if nFaulty != nClean {
		return r, fmt.Errorf("B12: faulted run served %d items, fault-free %d — a fault was dropped", nFaulty, nClean)
	}

	// Outage: the next four library commit attempts fail, exhausting the
	// retry budget after the bookseller committed — one stranded batch.
	cb.ScheduleNext(chaos.FaultTransient, 4)
	err = e.Ship(ctx, b12Batch(bsName, vldbID, "b12-stranded", 0))
	if !errors.Is(err, view.ErrPartialCommit) {
		return r, fmt.Errorf("B12 outage batch: err = %v, want ErrPartialCommit", err)
	}
	for i := 0; i < 20; i++ {
		rows, st, err := e.Run(view.Query{Class: "Item"})
		if err != nil {
			return r, fmt.Errorf("B12 degraded read %d: %w", i, err)
		}
		if len(rows) != nFaulty {
			return r, fmt.Errorf("B12 degraded read %d served %d items, want the pre-outage %d", i, len(rows), nFaulty)
		}
		if i == 0 && len(st.Degraded) == 0 {
			return r, fmt.Errorf("B12: degraded read did not name the quarantined member")
		}
		r.DegradedReads++
	}
	for i := 0; i < 5; i++ {
		err := e.Ship(ctx, b12Batch(bsName, vldbID, "b12-refused", i))
		if !errors.Is(err, view.ErrMemberUnavailable) {
			return r, fmt.Errorf("B12 quarantined write %d: err = %v, want ErrMemberUnavailable", i, err)
		}
		r.WriteFastFails++
	}

	// Heal (the schedule is exhausted) and time the reconcile pass.
	t0 = time.Now()
	rs, err := e.Reconcile(ctx)
	if err != nil {
		return r, err
	}
	r.Reconverge = time.Since(t0)
	r.Completed = rs.Completed
	rep := e.Health()
	if !rep.Healthy || rep.JournalDepth != 0 {
		return r, fmt.Errorf("B12 after reconcile: healthy=%v journal=%d, want a drained healthy federation", rep.Healthy, rep.JournalDepth)
	}
	n, err := count(e)
	if err != nil {
		return r, err
	}
	if n != nFaulty+1 {
		return r, fmt.Errorf("B12 after reconcile: %d items served, want %d (stranded batch applied)", n, nFaulty+1)
	}
	return r, nil
}

// B13Result is the durability measurement: what logging every routed
// commit to a checksummed WAL costs at ship time (no log, log without
// fsync, log with an fsync per commit), and what the persisted derived
// state buys back at boot time (a warm start — checkpoint restore, WAL
// tail replay, memo import, plan re-warming — against a cold start that
// re-runs the solver and re-plans from nothing). The acceptance
// property is the warm-start contract: the recovered node serves the
// same extent as the never-crashed control, and its first client
// queries are plan-cache hits issuing zero solver queries.
type B13Result struct {
	Scale   int
	Batches int

	// Ship phase: the identical cross-member workload three ways.
	ShipBare      time.Duration // routed registry, no WAL
	ShipWALNoSync time.Duration // WAL append per commit, OS-buffered
	ShipWALSync   time.Duration // WAL append + fsync per commit

	// Boot phase, after the synced node "crashes" (no final checkpoint).
	ColdBoot time.Duration // fresh integration + first queries, cold caches
	WarmBoot time.Duration // full recovery + the same first queries

	ReplayedCommits int // WAL tail commits the warm boot replayed
	MemoEntries     int // entailment verdicts imported from the checkpoint
	PlansWarmed     int // plan shapes re-planned before serving

	// First post-recovery client queries: the warm-start contract.
	WarmPlanHits      int64 // must equal the query count
	WarmSolverQueries int64 // must be 0
}

// WALOverheadNoSync is the ship-time ratio of OS-buffered logging.
func (r B13Result) WALOverheadNoSync() float64 {
	if r.ShipBare <= 0 {
		return 0
	}
	return float64(r.ShipWALNoSync) / float64(r.ShipBare)
}

// WALOverheadSync is the ship-time ratio of fsync-per-commit logging —
// the full durability bill.
func (r B13Result) WALOverheadSync() float64 {
	if r.ShipBare <= 0 {
		return 0
	}
	return float64(r.ShipWALSync) / float64(r.ShipBare)
}

// BootSpeedup is cold/warm boot-to-serving time.
func (r B13Result) BootSpeedup() float64 {
	if r.WarmBoot <= 0 {
		return 0
	}
	return float64(r.ColdBoot) / float64(r.WarmBoot)
}

// b13Queries is the read workload whose plan shapes the checkpoint
// persists and a warm boot re-plans.
func b13Queries() []view.Query {
	return []view.Query{
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
		{Class: "Item", Where: expr.MustParse("shopprice <= 20")},
	}
}

// b13Bare builds the two-member Figure 1 federation with routed
// shipping bound and no WAL — the control engine.
func b13Bare(scale int) (*view.Engine, string, int, error) {
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1)
	if err != nil {
		return nil, "", 0, err
	}
	e := view.New(res)
	if err := bindMembers(e, lib, bs); err != nil {
		return nil, "", 0, err
	}
	id, err := b13VLDB(res)
	return e, bs.Name(), id, err
}

func b13VLDB(res *core.Result) (int, error) {
	for _, g := range res.View.Objects {
		if v, ok := g.Get("isbn"); ok && v.Equal(object.Str("vldb96")) {
			return g.ID, nil
		}
	}
	return 0, fmt.Errorf("B13: vldb96 not in the integrated view")
}

// b13Node is a durable two-member node assembled from the store-layer
// primitives (the root package's Durability orchestration restated at
// this layer — experiments cannot import the root package without a
// cycle through the root benchmarks).
type b13Node struct {
	eng     *view.Engine
	res     *core.Result
	wal     *store.WAL
	memo    *logic.Memo
	members []*store.Store
	dir     string

	stats       store.ReplayStats
	memoEntries int
	plansWarmed int
}

// b13Boot performs the documented boot protocol, cold and warm alike:
// read the checkpoint, scan the WAL, replay into freshly built member
// stores, integrate with the imported memo, interpose WAL logging on
// every member, and re-plan the persisted shapes.
func b13Boot(dir string, scale int, sync store.SyncPolicy) (*b13Node, error) {
	ckpt, err := store.ReadCheckpoint(filepath.Join(dir, "checkpoint.db"))
	if err != nil && !errors.Is(err, store.ErrNoCheckpoint) {
		return nil, err
	}
	wal, recs, err := store.OpenWAL(filepath.Join(dir, "wal.log"), store.WALOptions{Sync: sync})
	if err != nil {
		return nil, err
	}
	rec := store.BuildRecovery(ckpt, recs, wal.Damage())
	n := &b13Node{wal: wal, dir: dir}

	memo := logic.NewMemo()
	n.memo = memo
	if sec, ok := rec.Derived("memo"); ok {
		if n.memoEntries, err = memo.Import(sec); err != nil {
			return nil, err
		}
	}
	lib, bs := fixture.Figure1Stores(fixture.Options{Scale: scale})
	n.members = []*store.Store{lib, bs}
	if n.stats, err = rec.Replay(map[string]*store.Store{lib.Name(): lib, bs.Name(): bs}); err != nil {
		return nil, err
	}
	res, err := core.IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), lib, bs, 1, core.Options{Memo: memo})
	if err != nil {
		return nil, err
	}
	n.res = res
	if sec, ok := rec.Derived("derivation"); ok {
		if err := core.VerifyDerivation(res.Derivation, sec); err != nil {
			return nil, err
		}
	}
	e := view.New(res)
	reg := store.NewRegistry()
	set := store.NewDurableSet(wal)
	for _, s := range []*store.Store{lib, bs} {
		if err := reg.Add(s); err != nil {
			return nil, err
		}
		if err := reg.Swap(s.Name(), set.Wrap(s)); err != nil {
			return nil, err
		}
	}
	e.BindStores(reg)
	e.SetDurability(set)
	if sec, ok := rec.Derived("plans"); ok {
		if n.plansWarmed, _, err = e.WarmPlans(context.Background(), sec); err != nil {
			return nil, err
		}
	}
	n.eng = e
	return n, nil
}

// checkpoint snapshots the node (extents + memo + derivation + plans)
// under the engine's read lock and drops the redundant WAL prefix.
func (n *b13Node) checkpoint(memo *logic.Memo) error {
	ck := &store.Checkpoint{Derived: map[string]json.RawMessage{}}
	var capErr error
	n.eng.ReadLocked(func() {
		ck.LSN = n.wal.LastLSN()
		for _, s := range n.members {
			mc, err := store.SnapshotStore(s)
			if err != nil {
				capErr = err
				return
			}
			ck.Members = append(ck.Members, mc)
		}
		if ck.Derived["memo"], capErr = memo.Export(); capErr != nil {
			return
		}
		if ck.Derived["derivation"], capErr = core.ExportDerivation(n.res.Derivation); capErr != nil {
			return
		}
		ck.Derived["plans"], capErr = n.eng.ExportPlans()
	})
	if capErr != nil {
		return capErr
	}
	if err := store.WriteCheckpoint(filepath.Join(n.dir, "checkpoint.db"), ck); err != nil {
		return err
	}
	return n.wal.TruncateThrough(ck.LSN)
}

// B13 measures durability on the scaled Figure 1 fixture. The ship
// phase runs the same cross-member workload bare, WAL-logged without
// fsync, and WAL-logged with an fsync per commit — the write-side bill.
// The boot phase then crashes the synced node (no final checkpoint) and
// compares a cold start against the warm recovery: replay the tail,
// answer the integration's solver queries from the imported memo,
// verify the derivation, re-plan the persisted shapes, and serve —
// first queries hitting the plan cache with zero solver work.
func B13(scale, batches int) (B13Result, error) {
	r := B13Result{Scale: scale, Batches: batches}
	ctx := context.Background()
	queries := b13Queries()

	// Bare control.
	be, bbs, bid, err := b13Bare(scale)
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	for i := 0; i < batches; i++ {
		if err := be.Ship(ctx, b12Batch(bbs, bid, "b13", i)); err != nil {
			return r, fmt.Errorf("B13 bare batch %d: %w", i, err)
		}
	}
	r.ShipBare = time.Since(t0)
	count := func(e *view.Engine) (int, error) {
		rows, _, err := e.Run(view.Query{Class: "Item"})
		return len(rows), err
	}
	nBare, err := count(be)
	if err != nil {
		return r, err
	}

	// WAL, no fsync.
	dirNoSync, err := os.MkdirTemp("", "b13-nosync-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dirNoSync)
	nn, err := b13Boot(dirNoSync, scale, store.SyncNever)
	if err != nil {
		return r, err
	}
	id, err := b13VLDB(nn.res)
	if err != nil {
		return r, err
	}
	t0 = time.Now()
	for i := 0; i < batches; i++ {
		if err := nn.eng.Ship(ctx, b12Batch(nn.members[1].Name(), id, "b13", i)); err != nil {
			return r, fmt.Errorf("B13 nosync batch %d: %w", i, err)
		}
	}
	r.ShipWALNoSync = time.Since(t0)
	if err := nn.wal.Close(); err != nil {
		return r, err
	}

	// WAL, fsync per commit. Run the read workload first so the
	// checkpoint persists plan shapes, checkpoint, then ship — the
	// workload lands entirely in the WAL tail.
	dirSync, err := os.MkdirTemp("", "b13-sync-*")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dirSync)
	ns, err := b13Boot(dirSync, scale, store.SyncAlways)
	if err != nil {
		return r, err
	}
	for _, q := range queries {
		if _, _, err := ns.eng.Run(q); err != nil {
			return r, err
		}
	}
	if err := ns.checkpoint(ns.memo); err != nil {
		return r, err
	}
	if id, err = b13VLDB(ns.res); err != nil {
		return r, err
	}
	t0 = time.Now()
	for i := 0; i < batches; i++ {
		if err := ns.eng.Ship(ctx, b12Batch(ns.members[1].Name(), id, "b13", i)); err != nil {
			return r, fmt.Errorf("B13 sync batch %d: %w", i, err)
		}
	}
	r.ShipWALSync = time.Since(t0)
	// Crash: close the log without a final checkpoint; the workload
	// survives only as the WAL tail.
	if err := ns.wal.Close(); err != nil {
		return r, err
	}

	// Cold boot control: integration from scratch, cold caches, first
	// queries planned and solver-checked from nothing.
	t0 = time.Now()
	ce, _, _, err := b13Bare(scale)
	if err != nil {
		return r, err
	}
	for _, q := range queries {
		if _, _, err := ce.Run(q); err != nil {
			return r, err
		}
	}
	r.ColdBoot = time.Since(t0)

	// Warm boot: full recovery of the crashed node plus the same first
	// queries.
	t0 = time.Now()
	nw, err := b13Boot(dirSync, scale, store.SyncAlways)
	if err != nil {
		return r, err
	}
	cs0 := nw.eng.CacheStats()
	for _, q := range queries {
		if _, _, err := nw.eng.Run(q); err != nil {
			return r, err
		}
	}
	r.WarmBoot = time.Since(t0)
	cs1 := nw.eng.CacheStats()
	r.ReplayedCommits = nw.stats.ReplayedCommits
	r.MemoEntries = nw.memoEntries
	r.PlansWarmed = nw.plansWarmed
	r.WarmPlanHits = cs1.PlanHits - cs0.PlanHits
	r.WarmSolverQueries = cs1.SolverQueries - cs0.SolverQueries
	if err := nw.wal.Close(); err != nil {
		return r, err
	}

	// The warm-start contract.
	if r.ReplayedCommits == 0 {
		return r, fmt.Errorf("B13: the crashed node's workload left no WAL tail to replay")
	}
	if r.WarmSolverQueries != 0 {
		return r, fmt.Errorf("B13: first post-recovery queries issued %d solver queries, want 0", r.WarmSolverQueries)
	}
	if r.WarmPlanHits != int64(len(queries)) {
		return r, fmt.Errorf("B13: first post-recovery queries recorded %d plan hits, want %d", r.WarmPlanHits, len(queries))
	}
	nWarm, err := count(nw.eng)
	if err != nil {
		return r, err
	}
	if nWarm != nBare {
		return r, fmt.Errorf("B13: recovered node serves %d items, never-crashed control %d", nWarm, nBare)
	}
	return r, nil
}

// Reasoner runs a micro-benchmark-sized workload through the logic
// checker (used by BenchmarkReasoner).
func Reasoner() logic.Verdict {
	c := &logic.Checker{Types: map[string]object.Type{"rating": object.RangeType{Lo: 1, Hi: 10}}}
	return c.Entails(
		[]expr.Node{expr.MustParse("ref? = true"), expr.MustParse("ref? = true implies rating >= 7")},
		expr.MustParse("rating >= 4"))
}

package view

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/object"
)

// TestSteadyStateRunCost pins the plan cache's amortization claim: the
// second identical Run performs ZERO logic.Checker queries and ZERO
// expr.Compile calls — the constraint reasoning and compilation are
// paid once per (class, predicate) shape (simplified-integrity-checking
// style) and replayed from the plan cache afterwards. A cached run's
// allocations are pinned too: none per rejected candidate, none per
// returned row once its object's projection is memoised, and at most 4
// per row that builds one (DESIGN §8.4). A cached residual reads
// attributes by slot, never by name, and one the column kernels serve
// allocates nothing per candidate (DESIGN §8.7).
func TestSteadyStateRunCost(t *testing.T) {
	e := scaledEngine(t, 10)
	queries := []Query{
		{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")},
		{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 75")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
		{Class: "Item", Where: expr.MustParse("shopprice < 40")},
	}
	// First runs: plan build (solver and compile work allowed).
	for _, q := range queries {
		if _, st, err := e.Run(q); err != nil {
			t.Fatal(err)
		} else if st.PlanCached {
			t.Fatalf("first run of %v claims a cached plan", q.Where)
		}
	}

	checker := e.checker.CacheStats()
	solverBefore := checker.Hits + checker.Misses
	compileBefore := expr.CompileCount()
	engineBefore := e.CacheStats()

	for _, q := range queries {
		_, st, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st.PlanCached {
			t.Errorf("second run of %v missed the plan cache: %+v", q.Where, st)
		}
	}

	checker = e.checker.CacheStats()
	if got := checker.Hits + checker.Misses - solverBefore; got != 0 {
		t.Errorf("steady-state runs issued %d checker queries, want 0", got)
	}
	if got := expr.CompileCount() - compileBefore; got != 0 {
		t.Errorf("steady-state runs compiled %d predicates, want 0", got)
	}
	engineAfter := e.CacheStats()
	if engineAfter.SolverQueries != engineBefore.SolverQueries {
		t.Errorf("engine counted %d planner solver queries on cached runs",
			engineAfter.SolverQueries-engineBefore.SolverQueries)
	}
	if engineAfter.Compiles != engineBefore.Compiles {
		t.Errorf("engine counted %d compiles on cached runs", engineAfter.Compiles-engineBefore.Compiles)
	}
	if got := engineAfter.PlanHits - engineBefore.PlanHits; got != int64(len(queries)) {
		t.Errorf("plan hits = %d, want %d", got, len(queries))
	}
	if engineAfter.PlanHitRate() <= 0 {
		t.Errorf("hit rate not reported: %v", engineAfter)
	}

	// A cached run pays per answer, not per candidate: the query builds
	// one evaluation environment and rebinds only self per row.
	runAllocs := func(e *Engine, q Query) (float64, []Row, Stats) {
		t.Helper()
		rows, st, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { e.Run(q) }), rows, st
	}

	// (a) An index-only point read builds no environment: it allocates
	// at most the 6 objects it did when every row built its own.
	point := Query{Class: "Item", Where: expr.MustParse("isbn = 'vldb96'")}
	if n, rows, st := runAllocs(e, point); st.IndexHits == 0 || len(rows) != 1 {
		t.Fatalf("%v: want an index-only single-row answer, got %d rows, %+v", point.Where, len(rows), st)
	} else if n > 6 {
		t.Errorf("%v allocates %.0f objects per run, want at most 6", point.Where, n)
	}

	// (b) A residual that rejects every candidate allocates the same at
	// 23 and 103 candidates: nothing per candidate.
	e50 := scaledEngine(t, 50)
	for _, q := range []Query{
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'NoSuch'")}, // deref path
		{Class: "Item", Where: expr.MustParse("title = isbn")},                     // cross-attribute
	} {
		var counts [2]float64
		for i, eng := range []*Engine{e, e50} {
			n, rows, st := runAllocs(eng, q)
			if len(rows) != 0 || st.Scanned == 0 || st.IndexHits != 0 {
				t.Fatalf("%v: want a residual scan that rejects every row, got %d rows, %+v", q.Where, len(rows), st)
			}
			counts[i] = n
		}
		if counts[0] != counts[1] {
			t.Errorf("%v allocates %.0f objects at scale 10 and %.0f at scale 50, want the same", q.Where, counts[0], counts[1])
		}
	}

	// (c) A residual that returns rows allocates at most 2 objects per
	// row (the Row map and its group) beyond the rejecting query's
	// per-query objects and the result slice's growth.
	rejectAll, _, _ := runAllocs(e50, Query{Class: "Item", Where: expr.MustParse("title = isbn")})
	every := Query{Class: "Item", Where: expr.MustParse("title != isbn"), Select: []string{"title", "isbn"}}
	n, rows, st := runAllocs(e50, every)
	if st.IndexHits != 0 || len(rows) == 0 {
		t.Fatalf("%v: want a residual scan that returns rows, got %d rows, %+v", every.Where, len(rows), st)
	}
	grows, length, capacity := 0, 0, 0
	for range rows {
		if length == capacity {
			grows++
			capacity = cap(append(make([]Row, length, capacity), nil))
		}
		length++
	}
	if limit := rejectAll + float64(2*len(rows)+grows); n > limit {
		t.Errorf("%v allocates %.0f objects for %d rows, want at most %.0f", every.Where, n, len(rows), limit)
	}
	// A warm rerun returns each object's memoised projection
	// (core.GObj.Project): nothing per row beyond the result slice.
	if limit := rejectAll + float64(grows); n > limit {
		t.Errorf("warm rerun of %v allocates %.0f objects for %d rows, want at most %.0f (none per row)", every.Where, n, len(rows), limit)
	}

	// (d) A cold projection allocates at most 4 objects per row: the row
	// map, its group, the object's new memo and the memo's copy of the
	// select list. Five select lists cycled through a memo of four make
	// every row of every run a miss.
	lists := [][]string{{"title", "isbn"}, {"isbn", "title"}, {"title"}, {"isbn"}, {"title", "shopprice"}}
	runs := 0
	cold := testing.AllocsPerRun(20, func() {
		q := every
		q.Select = lists[runs%len(lists)]
		runs++
		e50.Run(q)
	})
	if limit := rejectAll + float64(4*len(rows)+grows); cold > limit {
		t.Errorf("cold projection of %v allocates %.0f objects for %d rows, want at most %.0f", every.Where, cold, len(rows), limit)
	}

	// (e) A warm residual reads each candidate's attributes by slot, the
	// names resolved when the plan was compiled: over every Item, the
	// cached program makes two slot reads per candidate and no lookup by
	// name, and answers as it does over the unwrapped object.
	resid := Query{Class: "Item", Where: expr.MustParse("shopprice < libprice + 4")}
	if _, _, err := e.Run(resid); err != nil {
		t.Fatal(err)
	}
	s := e.snap.Load()
	cs := s.class(resid.Class)
	p, hit, err := e.planFor(bg, s, cs, resid.Where, e.UseConstraints)
	if err != nil || !hit || p.prog == nil || p.served != 0 {
		t.Fatalf("%v: want a cached residual scan plan, got hit=%v %+v %v", resid.Where, hit, p, err)
	}
	env := s.queryEnv()
	env.Declared = unwrapDecl{s}
	var byName, bySlot int
	for _, g := range cs.ext {
		env.Self = g
		want, werr := p.prog.EvalBool(env)
		w := &countingObj{GObj: g}
		env.Self = w
		got, err := p.prog.EvalBool(env)
		if got != want || (err == nil) != (werr == nil) {
			t.Fatalf("g%d: counted read %v, %v; plain read %v, %v", g.ID, got, err, want, werr)
		}
		byName += w.byName
		bySlot += w.bySlot
	}
	if byName != 0 || bySlot != 2*len(cs.ext) {
		t.Errorf("%v over %d candidates: %d reads by name and %d by slot, want 0 and %d", resid.Where, len(cs.ext), byName, bySlot, 2*len(cs.ext))
	}

	// (f) A residual the column kernels serve allocates the same at 23
	// and 103 candidates: an arithmetic kernel boxes no value per
	// candidate, and a dictionary kernel evaluates per distinct value.
	for _, q := range []Query{
		{Class: "Item", Where: expr.MustParse("shopprice < libprice - 1000")},
		{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'NoSuch'")},
	} {
		var counts [2]float64
		for i, eng := range []*Engine{e, e50} {
			n, rows, st := runAllocs(eng, q)
			s := eng.snap.Load()
			p, _, err := eng.planFor(bg, s, s.class(q.Class), q.Where, eng.UseConstraints)
			if err != nil || p.cols == nil || len(rows) != 0 || st.Scanned == 0 {
				t.Fatalf("%v: want a column-served scan that rejects every row, got %d rows, %+v, %v", q.Where, len(rows), st, err)
			}
			counts[i] = n
		}
		if counts[0] != counts[1] {
			t.Errorf("%v allocates %.0f objects at scale 10 and %.0f at scale 50, want the same", q.Where, counts[0], counts[1])
		}
	}
}

// countingObj counts how evaluation reads a global object: by name (Get)
// or by slot (At).
type countingObj struct {
	*core.GObj
	byName, bySlot int
}

func (c *countingObj) Get(attr string) (object.Value, bool) {
	c.byName++
	return c.GObj.Get(attr)
}

func (c *countingObj) At(slot int) (object.Value, bool) {
	c.bySlot++
	return c.GObj.At(slot)
}

// unwrapDecl answers the snapshot's declared-attribute question for a
// counted object as for the object itself.
type unwrapDecl struct{ s *snapshot }

func (d unwrapDecl) Declares(self expr.Object, attr string) bool {
	if c, ok := self.(*countingObj); ok {
		self = c.GObj
	}
	return d.s.Declares(self, attr)
}

// TestRunTakesNoEngineLock proves Run serves without e.mu: it completes
// while the exclusive lock is held (a Run that touched the lock would
// deadlock; the watchdog turns that into a failure rather than a hang).
func TestRunTakesNoEngineLock(t *testing.T) {
	e := scaledEngine(t, 1)
	q := Query{Class: "Proceedings", Where: expr.MustParse("rating >= 7")}
	if _, _, err := e.Run(q); err != nil { // build the plan first
		t.Fatal(err)
	}

	e.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, _, err := e.Run(q)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run under held write lock: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run blocked on the engine lock")
	}
	e.mu.Unlock()
}

// runVsReference pins the planned path (snapshot, plan cache, indexes,
// compiled residual) byte-identical to the mutex+scan reference: same
// rows, same error text, same constraint decisions, and never more rows
// evaluated. It returns both runs' stats and the planned path's error.
func runVsReference(t *testing.T, e *Engine, q Query) (fast, ref Stats, err error) {
	t.Helper()
	fastRows, fast, err := e.Run(q)
	refRows, ref, refErr := e.runReference(bg, q)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("query %v: error divergence: planned=%v reference=%v", q.Where, err, refErr)
	}
	if err != nil && err.Error() != refErr.Error() {
		t.Errorf("query %v: error text divergence: %q vs %q", q.Where, err, refErr)
	}
	if err == nil && !reflect.DeepEqual(fastRows, refRows) {
		t.Errorf("query %v: rows diverge:\nplanned:   %v\nreference: %v", q.Where, fastRows, refRows)
	}
	if fast.PrunedEmpty != ref.PrunedEmpty ||
		fast.DroppedConjuncts != ref.DroppedConjuncts ||
		fast.ConstraintGated != ref.ConstraintGated {
		t.Errorf("query %v: constraint decisions diverge: %+v vs %+v", q.Where, fast, ref)
	}
	if err == nil && fast.Scanned > ref.Scanned {
		t.Errorf("query %v: planned path evaluated more rows than the reference: %d > %d", q.Where, fast.Scanned, ref.Scanned)
	}
	return fast, ref, err
}

// TestSnapshotDifferentialReference pins the full planned path (snapshot
// + plan cache + cost gate + indexes + compiled residuals) against the
// locked interpreter scan over the live view, on the Figure 1 fixture at
// several scales. Each query runs twice so both the plan-build and the
// plan-cache-hit paths are compared.
func TestSnapshotDifferentialReference(t *testing.T) {
	for _, scale := range []int{1, 10, gateOpenScale, 50} {
		t.Run(fmt.Sprintf("scale=%d", scale), func(t *testing.T) {
			e := scaledEngine(t, scale)
			queries := []Query{
				{Class: "Proceedings", Where: expr.MustParse("isbn = 'vldb96'")},
				{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = 'vldb96-c%d'", scale))},
				{Class: "Proceedings", Where: expr.MustParse("ref? = true")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7")},
				{Class: "Item", Where: expr.MustParse("shopprice < 40")},
				{Class: "Item", Where: expr.MustParse("shopprice <= 30 and libprice > 20")},
				{Class: "Proceedings", Where: expr.MustParse("rating in {5, 8}")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and publisher.name = 'IEEE'")},
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'Springer'")},
				{Class: "Proceedings", Where: expr.MustParse("shopprice - libprice >= 2")},
				{Class: "Proceedings", Where: expr.MustParse("rating != 8")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7"), Select: []string{"title", "rating"}},
				{Class: "Item"},
				{Class: "NoSuchClass"},
				{Class: "Proceedings", Where: expr.MustParse("publisher.name = 'IEEE' and ref? = false")},
				{Class: "Proceedings", Where: expr.MustParse("(publisher.name = 'IEEE' implies ref? = true) and rating >= 8")},
				{Class: "Proceedings", Where: expr.MustParse("title + 1 = 2")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 100 and title + 1 = 2")},
				// The per-object declared rule: Proceedings members read
				// rating as null, a plain Item member fails on it as an
				// unknown identifier — the same error on both paths.
				{Class: "Item", Where: expr.MustParse("shopprice < 0 or rating = 3")},
				{Class: "Item", Where: expr.MustParse("shopprice < libprice - 1000 or rating = 3")},
				{Class: "Proceedings", Where: expr.MustParse("ref? = false or avgAccRate < 0")},
				// Quantifiers and aggregates bind variables on the query's
				// one environment, row after row.
				{Class: "Proceedings", Where: expr.MustParse("exists p in Publisher | p.name = publisher.name and p.name = 'IEEE'")},
				{Class: "Proceedings", Where: expr.MustParse("forall p in Publisher | p.name != publisher.name or rating >= 7")},
				{Class: "Item", Where: expr.MustParse("forall p in Publisher | p.name != publisher.name or rating >= 7")},
				{Class: "Item", Where: expr.MustParse("shopprice < (avg (collect x for x in Item) over shopprice)")},
			}
			pruned, dropped := 0, 0
			for _, q := range queries {
				st, _, _ := runVsReference(t, e, q)
				runVsReference(t, e, q) // second pass: plan-cache hit
				if st.PrunedEmpty {
					pruned++
				}
				if st.DroppedConjuncts > 0 {
					dropped++
				}
			}
			// From gateOpenScale on, the extent is large enough for the cost
			// gate to open: the constraint phase must show in both forms.
			if scale == gateOpenScale && (pruned == 0 || dropped == 0) {
				t.Errorf("scale %d: %d pruned and %d dropped plans, want at least one of each", scale, pruned, dropped)
			}

			// The prefix resolver's shapes (planner.go servedPrefix), on
			// the planned path and the reference; IndexHits and
			// CandidateRows are checked against runTwoModes' oracles.
			resolver := []Query{
				// Same-attribute range pairs: nested, disjoint (inverted
				// window), touching, and three deep.
				{Class: "Item", Where: expr.MustParse("shopprice >= 20 and shopprice <= 90 and shopprice > 30 and shopprice < 75")},
				{Class: "Item", Where: expr.MustParse("shopprice > 75 and shopprice < 30")},
				{Class: "Item", Where: expr.MustParse("shopprice >= 80 and shopprice <= 80")},
				{Class: "Item", Where: expr.MustParse("shopprice > 80 and shopprice <= 80")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and libprice > 20 and rating < 9.5 and libprice <= 78")},
				// Eq + range and eq + in on one attribute; Int vs Real constants.
				{Class: "Proceedings", Where: expr.MustParse("rating = 8.0 and rating >= 7 and rating in {8, 9}")},
				{Class: "Proceedings", Where: expr.MustParse("rating = 8 and rating > 8")},
				{Class: "Item", Where: expr.MustParse(fmt.Sprintf("isbn = 'vldb96-c%d' and shopprice > 0.5", scale))},
				{Class: "Item", Where: expr.MustParse(fmt.Sprintf("shopprice > 0.5 and isbn in {'vldb96-c%d', 'vldb96', 'nope'}", scale))},
				// In-sets with null and duplicate elements.
				{Class: "Proceedings", Where: inSet("rating", object.Null{}, object.Int(8), object.Real(8), object.Int(8), object.Int(5))},
				{Class: "Proceedings", Where: expr.Binary{Op: expr.OpAnd, L: expr.MustParse("shopprice < 100"), R: inSet("rating", object.Null{})}},
				// Null and declared-but-absent attributes (remote-only
				// members carry no avgAccRate); undeclared on part of the
				// extent (the index declines, the prefix stops there).
				{Class: "RefereedPubl", Where: expr.MustParse("avgAccRate >= 0.1 and avgAccRate < 0.19 and rating >= 1")},
				{Class: "Publication", Where: expr.MustParse("shopprice > 10 and avgAccRate >= 0.1 and shopprice < 75")},
				// A constant of the wrong kind class mid-prefix: the ordered
				// index declines, the residual surfaces the scan's error.
				{Class: "Proceedings", Where: expr.MustParse("rating >= 7 and shopprice < 'abc' and isbn = 'vldb96'")},
				{Class: "Proceedings", Where: expr.MustParse("rating >= 100 and shopprice < 'abc'")},
				{Class: "Item", Where: expr.MustParse("shopprice >= 20 and isbn > 5 and shopprice <= 90")},
			}
			for _, q := range resolver {
				first := runTwoModes(t, e, q)
				if again := runTwoModes(t, e, q); !again.PlanCached || again.CandidateRows != first.CandidateRows {
					t.Errorf("query %v: plan-cache hit diverges from the build: %+v vs %+v", q.Where, again, first)
				}
			}
			// The window merge is by position, not by constant: four
			// range conjuncts on one attribute, two probes' worth of rows.
			if st := runTwoModes(t, e, resolver[0]); st.IndexHits != 4 {
				t.Errorf("nested ranges: IndexHits = %d, want 4", st.IndexHits)
			}
			if st := runTwoModes(t, e, resolver[1]); st.IndexHits != 2 || st.CandidateRows != 0 {
				t.Errorf("disjoint ranges: %+v, want 2 served conjuncts and no candidate", st)
			}
			if st := runTwoModes(t, e, resolver[13]); st.IndexHits != 1 {
				t.Errorf("wrong-kind constant mid-prefix: IndexHits = %d, want 1", st.IndexHits)
			}
		})
	}
}

// TestSnapshotDifferentialRandomized cross-checks the planned path
// against the reference on a generated federation under a seeded random
// query workload (200 queries), interleaved with mutations so plans are
// exercised across snapshot generations.
func TestSnapshotDifferentialRandomized(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 10)
	rng := rand.New(rand.NewSource(41))
	classes := []string{"Item", "Proceedings", "Publication", "Monograph"}
	mkConj := func() string {
		switch rng.Intn(7) {
		case 0:
			return fmt.Sprintf("rating >= %d", rng.Intn(10)+1)
		case 1:
			return fmt.Sprintf("rating = %d", rng.Intn(10)+1)
		case 2:
			return fmt.Sprintf("shopprice < %d", 20+rng.Intn(80))
		case 3:
			return fmt.Sprintf("libprice > %d", 20+rng.Intn(80))
		case 4:
			return fmt.Sprintf("isbn = 'vldb96-c%d'", rng.Intn(10)+1)
		case 5:
			return fmt.Sprintf("rating in {%d, %d}", rng.Intn(10)+1, rng.Intn(10)+1)
		default:
			return fmt.Sprintf("ref? = %v", rng.Intn(2) == 0)
		}
	}
	for i := 0; i < 200; i++ {
		src := mkConj()
		for k := rng.Intn(3); k > 0; k-- {
			src += " and " + mkConj()
		}
		q := Query{Class: classes[rng.Intn(len(classes))], Where: expr.MustParse(src)}
		runVsReference(t, e, q)
		if i%20 == 19 {
			// Mutate so later queries plan against a fresh snapshot.
			attrs := map[string]object.Value{
				"title": object.Str(fmt.Sprintf("gen-%d", i)), "isbn": object.Str(fmt.Sprintf("gen-%d", i)),
				"publisher": object.Ref{DB: "Bookseller", OID: 2},
				"shopprice": object.Real(float64(20 + rng.Intn(40))), "libprice": object.Real(10),
			}
			if err := ship(e, insertOf("Item", attrs)); err != nil {
				t.Fatalf("mutation %d: %v", i, err)
			}
		}
	}
}

// TestPlanInvalidationOnMutation pins the invalidation rule: a mutation
// of a class republishes its state, so the next identical query replans
// against the new extent and serves the new answer — while a class the
// mutation did not change carries its state, and its cached plans, over
// into the new snapshot.
func TestPlanInvalidationOnMutation(t *testing.T) {
	e, _, _ := scaledEngineStores(t, 1)
	q := Query{Class: "Item", Where: expr.MustParse("isbn = 'inval-1'")}
	rows, _, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("probe object already present: %v", rows)
	}
	other := Query{Class: "Publisher", Where: expr.MustParse("location = 'Berlin'")}
	if _, _, err := e.Run(other); err != nil {
		t.Fatal(err)
	}
	otherState := e.snap.Load().class("Publisher")
	if err := ship(e, insertOf("Item", map[string]object.Value{
		"title": object.Str("inval"), "isbn": object.Str("inval-1"),
		"publisher": object.Ref{DB: "Bookseller", OID: 2},
		"shopprice": object.Real(30), "libprice": object.Real(10),
	})); err != nil {
		t.Fatal(err)
	}
	rows, st, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("insert invisible after republish: %v (stats %+v)", rows, st)
	}
	if st.PlanCached {
		t.Errorf("plan survived a mutation of its class: %+v", st)
	}
	// Second run after the republish hits the new plan.
	if _, st, err = e.Run(q); err != nil || !st.PlanCached {
		t.Errorf("replanned query not cached: %+v %v", st, err)
	}
	if e.snap.Load().class("Publisher") != otherState {
		t.Error("an Item insert replaced the Publisher state")
	}
	if _, st, err := e.Run(other); err != nil || !st.PlanCached {
		t.Errorf("plan of a class the insert did not change was dropped: %+v %v", st, err)
	}
}

// TestClassCreationKeepsOtherPlans pins the structural fallback of a
// delta publication: a batch that names a class the snapshot does not
// serve yet (the first member of a previously empty virtual class)
// publishes a fresh class map, and every class it does not name carries
// its cached plans over.
func TestClassCreationKeepsOtherPlans(t *testing.T) {
	e := scaledEngine(t, 1)
	q := Query{Class: "Proceedings", Where: expr.MustParse("rating >= 7")}
	for i := 0; i < 2; i++ {
		if _, _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}

	e.mu.Lock()
	e.res.View.ClassNames = append(e.res.View.ClassNames, "FreshVirtual")
	e.publishDeltaLocked([]string{"FreshVirtual"}, nil, false)
	e.mu.Unlock()

	// Only the structural path rebuilds the declared-attribute map.
	if _, ok := e.snap.Load().decl["FreshVirtual"]; !ok {
		t.Error("class-creating publication kept the previous declared-attribute map: it did not publish structurally")
	}
	if !e.HasClass("FreshVirtual") {
		t.Error("the created class is not served")
	}
	if _, st, err := e.Run(q); err != nil || !st.PlanCached {
		t.Errorf("plan of an unnamed class dropped by a class-creating publication: %+v %v", st, err)
	}
}

package view

import (
	"context"
	"fmt"
	"sync/atomic"

	"interopdb/internal/expr"
)

// The plan cache (DESIGN.md §8): every (class, predicate shape,
// UseConstraints) is planned once per snapshot generation. A cached
// plan stores the constraint-phase verdicts (pruned-empty, dropped conjuncts), the
// chosen access path with its resolved candidate positions (the extent
// is frozen for the snapshot's lifetime, so probe results are resolved
// at plan time and reused verbatim), and the compiled residual closure.
// A steady-state Run therefore performs zero solver queries, zero
// compilations and zero index probes — following Martinenghi's
// simplified integrity checking, the constraint reasoning is paid once
// per shape and amortized to zero. Plans live inside the snapshot's
// classState, so any mutation of a class invalidates its plans wholesale
// by replacing the classState.

// planKey identifies a plan: the structural fingerprint of the
// predicate (constants included) plus the UseConstraints setting it was
// built under.
type planKey struct {
	hi, lo uint64
	cons   bool
}

// plan is one cached serving strategy. Immutable after construction.
type plan struct {
	// pred is the predicate the plan was built for; fingerprints are
	// hashes, so lookups verify structural equality before trusting a
	// hit (a collision rebuilds, it never mis-serves).
	pred expr.Node

	// Constraint-phase outcome.
	pruned  bool // constraints refute the predicate: serve nothing
	dropped int  // conjuncts implied by the constraints, removed
	gated   bool // cost gate skipped the constraint phase entirely

	// Access path. served > 0 means the first served conjuncts are
	// answered by the index candidate set below; otherwise every extent
	// member is a candidate.
	served    int
	positions []int // ascending extent positions, resolved at plan time

	// Residual predicate over the candidates, compiled once (nil: all
	// candidates match).
	prog *expr.Program
	// cols evaluates the residual's leading conjuncts over the class
	// state's columns (column.go); nil unless served == 0 and the first
	// residual conjunct is a kernel.
	cols *colPlan
}

// engineCounters aggregates the serving engine's cache-effectiveness
// counters (atomics: every path updates them without any lock).
type engineCounters struct {
	planHits   atomic.Int64
	planMisses atomic.Int64
	solver     atomic.Int64
	compiles   atomic.Int64
	publishes  atomic.Int64
	// keyFiled counts the holders the key indexes filed, in a build or
	// on a write, keyVisited the live members Validate's key check
	// examined, and keyStaged the key strings it computed for the
	// batch's staged writes (mutate.go). indexFiled counts the values
	// filed into eq and ordered indexes, by fresh builds and overlays
	// alike (index.go, inherit.go), and derefFiled the entries written
	// to deref tables, by folds and side entries alike (snapshot.go).
	// colFiled counts the rows read into columns, refused builds
	// included (column.go). None is exported: the write-cost counts
	// tests read them.
	keyFiled   atomic.Int64
	keyVisited atomic.Int64
	keyStaged  atomic.Int64
	indexFiled atomic.Int64
	derefFiled atomic.Int64
	colFiled   atomic.Int64
}

// CacheStats reports the serving engine's steady-state cache work: plan
// cache effectiveness, and how many solver queries and predicate
// compilations the planner has performed in total (a plan-cache hit
// performs none of either — pinned by TestSteadyStateRunCost).
type CacheStats struct {
	// PlanHits / PlanMisses count Run calls served from / building a
	// plan (predicate-free queries touch no plan and count in neither).
	PlanHits   int64
	PlanMisses int64
	// SolverQueries counts logic.Checker calls issued by the planner
	// (satisfiability + entailment); the checker's own CacheStats
	// additionally distinguishes memo hits from fresh computations.
	SolverQueries int64
	// Compiles counts expr.Compile calls made by the planner.
	Compiles int64
	// Publishes counts snapshot publications: one at construction, one
	// per batch Ship or Reconcile applies to the view, one per Rebind.
	Publishes int64
}

// PlanHitRate returns the fraction of planned queries answered from the
// plan cache.
func (s CacheStats) PlanHitRate() float64 {
	total := s.PlanHits + s.PlanMisses
	if total == 0 {
		return 0
	}
	return float64(s.PlanHits) / float64(total)
}

// String renders the stats.
func (s CacheStats) String() string {
	return fmt.Sprintf("plan-hits=%d plan-misses=%d hit-rate=%.1f%% solver-queries=%d compiles=%d publishes=%d",
		s.PlanHits, s.PlanMisses, 100*s.PlanHitRate(), s.SolverQueries, s.Compiles, s.Publishes)
}

// CacheStats returns the engine's cache counters.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		PlanHits:      e.counters.planHits.Load(),
		PlanMisses:    e.counters.planMisses.Load(),
		SolverQueries: e.counters.solver.Load(),
		Compiles:      e.counters.compiles.Load(),
		Publishes:     e.counters.publishes.Load(),
	}
}

// planFor returns the cached plan for the predicate under the given
// UseConstraints setting, building and (capacity permitting) caching it
// on miss. hit reports whether the plan came from the cache; Run
// counts it in CacheStats, WarmPlans does not. A build aborted by context
// cancellation returns the error and caches NOTHING — a half-planned
// query must not poison the cache for later callers.
func (e *Engine) planFor(ctx context.Context, s *snapshot, cs *classState, pred expr.Node, useCons bool) (p *plan, hit bool, err error) {
	fp := expr.Fingerprint(pred)
	key := planKey{hi: fp.Hi, lo: fp.Lo, cons: useCons}
	if v, ok := cs.plans.Load(key); ok {
		p := v.(*plan)
		if expr.Equal(p.pred, pred) {
			return p, true, nil
		}
		// Fingerprint collision: serve a throwaway plan, leave the
		// incumbent cached.
		p, err = e.buildPlan(ctx, s, cs, pred, useCons)
		return p, false, err
	}
	p, err = e.buildPlan(ctx, s, cs, pred, useCons)
	if err != nil {
		return nil, false, err
	}
	if cs.nplans.Load() < maxPlansPerClass {
		if _, loaded := cs.plans.LoadOrStore(key, p); !loaded {
			cs.nplans.Add(1)
		}
	}
	return p, false, nil
}

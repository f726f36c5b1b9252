package view

import (
	"context"
	"fmt"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
)

// The planner (DESIGN.md §8): turns a predicate into a cached plan in
// three cost-gated steps.
//
//  1. Cost gate. The constraint phase costs solver work (satisfiability
//     of constraints ∧ predicate, then one entailment per conjunct) that
//     can exceed the scan it optimises on a small extent (the B1 count
//     table in internal/experiments reports the gated queries;
//     TestMergedWindowGate pins one verdict). The gate estimates the cost
//     of just serving the query — candidate count after the sargable
//     prefix (from the same per-class statistics the indexes embody:
//     extent cardinality, hash-bucket and range-window selectivity) ×
//     a static per-row evaluation estimate — and enters the constraint
//     phase only when that serving cost exceeds the expected solver
//     cost. The decision is a pure function of snapshot content and
//     predicate, so the indexed path, the scan path and the mutex+scan
//     reference all decide identically.
//  2. Constraint phase (when worthwhile): prune provably-empty queries,
//     drop conjuncts the global constraints imply. When nothing is
//     dropped the original predicate node is reused as the residual —
//     no rebuild, no allocation.
//  3. Access path: resolve the maximal index-answerable prefix of the
//     remaining conjuncts (servedPrefix — the resolver the gate uses
//     too), materialise only its smallest probe and keep the positions
//     every other served probe matches row by row, once (the snapshot's
//     extent is frozen, so the result holds for the plan's whole
//     lifetime) — a miss costs what its answer costs, not what its
//     widest probe spans; compile the residual once.
//
// The worst case is therefore bounded by the plain scan: a plan that
// gates the constraint phase and finds no usable index degenerates to
// exactly the scan it replaces, minus nothing.

// Static cost model (nanosecond-scale weights, calibrated against the
// interpreter's measured per-row costs on the B-series fixtures).
const (
	// costEnvPerRow covers per-row environment construction and loop
	// bookkeeping.
	costEnvPerRow = 250.0
	// costNode is the default per-AST-node evaluation estimate.
	costNode = 25.0
	// costSelfPath reads a stored attribute of the row itself.
	costSelfPath = 30.0
	// costDerefPath follows a reference to another object (e.g.
	// publisher.name): deref plus remote attribute lookup.
	costDerefPath = 2000.0
	// costExtentRead is an aggregate or quantifier that scans class
	// extensions per row.
	costExtentRead = 50000.0
	// costConstraintPhase is the expected cold cost of the constraint
	// phase's solver queries. Below this serving estimate the phase
	// cannot pay for itself even when it prunes everything.
	costConstraintPhase = 120000.0
)

// estRowCost estimates the per-row evaluation cost (ns) of the
// conjuncts, by a weighted walk of their ASTs.
func estRowCost(conjs []expr.Node) float64 {
	var cost float64
	for _, c := range conjs {
		expr.Walk(c, func(n expr.Node) bool {
			switch n := n.(type) {
			case expr.Path:
				if id, ok := n.Recv.(expr.Ident); ok && id.Name == "self" {
					cost += costSelfPath
				} else {
					cost += costDerefPath
				}
			case expr.Agg, expr.Quant:
				cost += costExtentRead
			default:
				cost += costNode
			}
			return true
		})
	}
	return cost
}

// estServeCost estimates the cost (ns) of serving the conjuncts without
// any constraint help: the candidate count surviving the served prefix
// (its smallest probe's count, from the extent indexes — built on
// demand; they are the per-class statistics) times the per-row cost of
// the remaining conjuncts. The estimate deliberately ignores whether
// the caller will execute with indexes on or off, so every serving mode
// reaches the same gate decision.
func (e *Engine) estServeCost(s *snapshot, cs *classState, conjs []expr.Node) float64 {
	candidates := len(cs.ext)
	probes, served := e.servedPrefix(s, cs, conjs)
	if served > 0 && probes[0].n < candidates {
		candidates = probes[0].n
	}
	return float64(candidates) * (costEnvPerRow + estRowCost(conjs[served:]))
}

// constraintPhaseWorthwhile is the cost gate: run the constraint phase
// only when the plain serving estimate exceeds its expected solver cost
// (always, when the engine's CostGate toggle is off).
func (e *Engine) constraintPhaseWorthwhile(s *snapshot, cs *classState, conjs []expr.Node) bool {
	if !e.CostGate {
		return true
	}
	return e.estServeCost(s, cs, conjs) >= costConstraintPhase
}

// constraintPhase runs the paper's query-optimisation step: refute the
// predicate against the class's global constraints (pruned-empty), then
// drop the conjuncts the constraints imply. kept is the surviving
// conjunct list — the caller's own slice, untouched, when nothing was
// dropped. The checker is passed in (the snapshot's generation) because
// plan building is lock-free and a federation membership change may swap
// the engine's derivation mid-flight. The context is checked between
// solver calls (each can cost tens of microseconds cold): cancellation
// aborts the phase with ctx.Err().
func (e *Engine) constraintPhase(ctx context.Context, ck *logic.Checker, cons []expr.Node, pred expr.Node, conjs []expr.Node) (pruned bool, kept []expr.Node, dropped int, err error) {
	all := append(append(make([]expr.Node, 0, len(cons)+1), cons...), pred)
	e.counters.solver.Add(1)
	if ck.Satisfiable(all...) == logic.No {
		return true, nil, 0, nil
	}
	var residual []expr.Node
	for i, c := range conjs {
		if ctx.Err() != nil {
			return false, nil, 0, ctx.Err()
		}
		e.counters.solver.Add(1)
		if ck.Entails(cons, c) == logic.Yes {
			if dropped == 0 {
				// First drop: materialise the kept prefix.
				residual = append(residual, conjs[:i]...)
			}
			dropped++
			continue
		}
		if dropped > 0 {
			residual = append(residual, c)
		}
	}
	if dropped == 0 {
		// Nothing dropped: reuse the original conjuncts (and, upstream,
		// the original predicate node) instead of re-conjoining an
		// identical copy.
		return false, conjs, 0, nil
	}
	return false, residual, dropped, nil
}

// buildPlan plans one (class, predicate, flags) combination against the
// snapshot. pred must be non-nil. Cancellation mid-build returns
// ctx.Err(); the caller discards the partial plan.
func (e *Engine) buildPlan(ctx context.Context, s *snapshot, cs *classState, pred expr.Node, useCons, useIdx bool) (*plan, error) {
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	p := &plan{pred: pred}
	conjs := conjuncts(pred)
	residual := pred

	if useCons {
		cons := e.consFor(cs.name).object
		if len(cons) > 0 {
			if e.constraintPhaseWorthwhile(s, cs, conjs) {
				pruned, kept, dropped, err := e.constraintPhase(ctx, s.checker, cons, pred, conjs)
				if err != nil {
					return nil, err
				}
				if pruned {
					p.pruned = true
					return p, nil
				}
				p.dropped = dropped
				if dropped > 0 {
					conjs = kept
					residual = conjoinNodes(kept)
				}
			} else {
				p.gated = true
			}
		}
	}

	if useIdx && residual != nil {
		if probes, served := e.servedPrefix(s, cs, conjs); served > 0 {
			p.served = served
			p.positions = candidatePositions(probes, cs.ext)
			residual = conjoinNodes(conjs[served:])
		}
	}

	p.residual = residual
	if residual != nil {
		if useIdx {
			e.counters.compiles.Add(1)
			p.prog = expr.Compile(residual)
		} else {
			// Reference semantics: the scan mode evaluates with the
			// tree-walking interpreter, exactly like the pre-snapshot
			// engine's UseIndexes=false path.
			p.interp = true
		}
	}
	return p, nil
}

// servedPrefix resolves the maximal index-answerable prefix of the
// conjuncts against the snapshot's indexes, materialising nothing: the
// number of conjuncts served and their probes, smallest count first
// (probes[0] is the driver). Range conjuncts on one attribute merge into
// a single probe whose [lo, hi) window is the intersection of theirs —
// every single window is [0, x) or [x, n), so the tighter side wins by
// comparing ints, and an inverted window means zero candidates. Both the
// cost gate and the access path call it, so they see the same prefix.
//
// Only a prefix may be served: the scan evaluates conjuncts left to
// right with short-circuiting, so a row pruned by a served conjunct is a
// row the scan would have short-circuited at that same conjunct — but
// only if every earlier conjunct is also served (served conjuncts are
// proven error-free on every row; a residual conjunct to the left could
// error on a row the index prunes, and that error must surface exactly
// as it does on the scan path). Serving stops at the first conjunct
// that is not sargable or whose index declines.
func (e *Engine) servedPrefix(s *snapshot, cs *classState, conjs []expr.Node) (probes []probe, served int) {
next:
	for _, c := range conjs {
		pr, sarg := sargableProbe(c)
		if !sarg || !e.resolve(s, cs, &pr) {
			break
		}
		served++
		if pr.kind == probeRange {
			for i := range probes {
				m := &probes[i]
				if m.kind != probeRange || m.attr != pr.attr {
					continue
				}
				if pr.lo > m.lo {
					m.lo, m.lower = pr.lo, pr.lower
				}
				if pr.hi < m.hi {
					m.hi, m.upper = pr.hi, pr.upper
				}
				m.n = max(0, m.hi-m.lo)
				continue next
			}
		}
		probes = append(probes, pr)
	}
	for i := range probes {
		if probes[i].n < probes[0].n {
			probes[0], probes[i] = probes[i], probes[0]
		}
	}
	return probes, served
}

// candidatePositions answers the served prefix: the driver's positions
// (ascending) that every other probe matches. An empty driver filters
// nothing.
func candidatePositions(probes []probe, ext []*core.GObj) []int {
	pos := probes[0].positions(ext)
	out := pos[:0]
next:
	for _, p := range pos {
		for i := 1; i < len(probes); i++ {
			if !probes[i].matches(ext[p]) {
				continue next
			}
		}
		out = append(out, p)
	}
	return out
}

// runReference is the mutex+scan reference implementation the snapshot
// path is differentially pinned against: it takes the engine read lock,
// applies the same cost-gated constraint phase (same gate inputs, same
// memoized verdicts), and scans the LIVE extent with the tree-walking
// interpreter — no snapshot, no plan cache, no indexes, no compiled
// predicates.
func (e *Engine) runReference(q Query) ([]Row, Stats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var stats Stats
	ext := e.res.View.Extent(q.Class)
	pred := q.Where

	if e.UseConstraints && pred != nil {
		cons := e.consFor(q.Class).object
		if len(cons) > 0 {
			// Under the read lock, and with every prior Ship returned
			// (so its staged publication has flushed), the published
			// snapshot is current and the gate sees the same statistics
			// the planner sees. The differential tests drive Run and
			// runReference serially, so that holds for every comparison.
			s := e.snap.Load()
			conjs := conjuncts(pred)
			if e.constraintPhaseWorthwhile(s, s.class(q.Class), conjs) {
				pruned, kept, dropped, err := e.constraintPhase(context.Background(), s.checker, cons, pred, conjs)
				if err != nil {
					return nil, stats, err
				}
				if pruned {
					stats.PrunedEmpty = true
					return nil, stats, nil
				}
				stats.DroppedConjuncts = dropped
				if dropped > 0 {
					pred = conjoinNodes(kept)
				}
			} else {
				stats.ConstraintGated = true
			}
		}
	}

	stats.CandidateRows = len(ext)
	var rows []Row
	for _, g := range ext {
		stats.Scanned++
		if pred != nil {
			ok, err := e.res.View.Env(g).EvalBool(pred)
			if err != nil {
				return nil, stats, fmt.Errorf("query on %s: %w", q.Class, err)
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, projectRow(g, q.Select))
	}
	return rows, stats, nil
}

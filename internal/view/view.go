// Package view implements the two uses of global integrity constraints
// that motivate the paper (§1): query optimisation against the integrated
// view — eliminating subqueries known to yield empty results — and
// validation of update transactions — rejecting subtransactions that the
// local transaction managers would certainly refuse, before they are
// shipped. The full mutation lifecycle (insert, update, delete, mixed
// batches) is validated with delta-restricted checking and shipped
// through Engine.Validate and Engine.Ship; see mutate.go, route.go and
// DESIGN.md §7.
//
// Queries are served lock-free from immutable snapshots through a
// cost-gated, plan-cached optimizer (snapshot.go, planner.go,
// plancache.go; DESIGN.md §8): Run never takes the engine lock, and a
// repeated query performs no solver work and no compilation.
package view

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/schema"
	"interopdb/internal/store"
)

// Row is one query result: attribute name → value.
type Row map[string]object.Value

// Query is a select-from-where over a global class.
type Query struct {
	Class  string
	Where  expr.Node // nil = no predicate
	Select []string  // empty = all attributes present
}

// Stats reports what the optimiser did for one query.
type Stats struct {
	// Scanned counts objects actually evaluated (or projected, for
	// predicate-free queries).
	Scanned int
	// PrunedEmpty is true when the global constraints refuted the
	// predicate outright and the scan was skipped.
	PrunedEmpty bool
	// DroppedConjuncts counts predicate conjuncts implied by the global
	// constraints and removed from the residual predicate.
	DroppedConjuncts int
	// IndexHits counts predicate conjuncts answered from extent indexes
	// instead of being evaluated per row.
	IndexHits int
	// CandidateRows is the number of rows the serving loop considered:
	// the resolved index candidate set when indexes applied, the full
	// extent otherwise (and 0 for pruned-empty queries).
	CandidateRows int
	// PlanCached is true when the query was served from a cached plan
	// (no planning, no solver queries, no compilation).
	PlanCached bool
	// ConstraintGated is true when the cost gate decided the constraint
	// phase could not pay for itself and skipped it.
	ConstraintGated bool
	// Degraded names the members currently quarantined by the circuit
	// breaker (health.go): the query was served from the last-good
	// snapshot, whose contributions from these members may be stale.
	// Empty on a healthy federation.
	Degraded []string
}

// Engine runs queries and validates mutations against an integration
// result, and ships validated mutations to the component stores. It is
// safe for concurrent use. Run is lock-free: it serves from the
// published snapshot and may run at any time, including concurrently
// with mutations (readers observe either the pre- or the post-mutation
// snapshot, never a torn mix). Validate shares a read lock; Ship takes
// the write lock while mutating the live view, then publishes the next
// snapshot. The UseConstraints/UseIndexes toggles are plain fields for
// benchmarking convenience and must not be flipped concurrently with
// serving.
type Engine struct {
	res     *core.Result
	checker *logic.Checker
	// UseConstraints toggles constraint-based optimisation; off, the
	// engine behaves like the drop-all baseline.
	UseConstraints bool
	// UseIndexes toggles the indexed+compiled serving fast path: extent
	// indexes answer sargable conjuncts and the residual predicate is
	// compiled once per plan. Off, Run scans the snapshot extent with
	// the tree-walking interpreter and Validate answers key uniqueness
	// by extent scan alone — the reference semantics the differential
	// tests compare against.
	UseIndexes bool
	// CostGate toggles the planner's cost gate on the constraint phase
	// (planner.go): on, the solver is only consulted when the estimated
	// serving cost exceeds its expected cost, so the optimizer never
	// loses to the scan it replaces. Off, the constraint phase always
	// runs — the paper's unconditioned behaviour, kept for the
	// small-fixture reproductions and A/B measurements.
	CostGate bool

	// mu serialises the live view: Validate and CheckAll hold it for
	// read, Ship for write while applying a shipped batch and staging
	// its publication. Run does NOT take it.
	mu sync.RWMutex

	// snap is the published serving snapshot (snapshot.go).
	snap atomic.Pointer[snapshot]

	// epochs is the reader epoch-slot table (epoch.go): Run pins the
	// snapshot it serves from so reclamation never excises a class
	// version a reader can still resolve.
	epochs *epochTable

	// pending is the staged-but-unflushed publication (snapshot.go) and
	// deep the classes whose version chains hold retired versions. Both
	// are guarded by mu: written under the write lock, readable under
	// either half (Validate checks pending == nil under the read
	// lock to decide whether the snapshot's key index is current).
	pending *pendingPub
	deep    map[string]*classSlot

	// stores is the registry the unified Ship entrypoint routes through
	// (route.go). Bound by the federation that owns the engine; nil until
	// then. An atomic pointer because Attach/Detach rebind it while
	// concurrent Ship calls read it.
	stores atomic.Pointer[store.Registry]

	// cmu guards the constraint caches below. Constraints are fixed for
	// the engine's lifetime, so these caches survive snapshot
	// publications; they are consulted at plan-build and validation
	// time only, never on the steady-state serve path.
	cmu   sync.RWMutex
	cons  map[string]*classCons
	mcons map[string]*consGroup

	counters engineCounters

	// Retry configures transient member-commit retries on the routed
	// shipping path (reconcile.go). The zero value means defaults; set
	// it before serving traffic — it is read without synchronisation.
	Retry RetryPolicy

	// health tracks per-member circuit breakers (health.go); journal
	// holds the partial-commit recovery entries and the node's
	// write-ahead log binding (journal.go); faults counts the
	// fault-handling events (reconcile.go). All three are internally
	// synchronised.
	health  *healthTracker
	journal *commitJournal
	faults  faultCounters
}

// classCons caches one class's scope-all global constraints, split by
// how the serving path consumes them (satellite of the paper's §1 uses:
// object constraints restrict predicates, key constraints gate inserts
// and updates). Each object constraint carries its attribute footprint
// and whether it reads class extensions, precomputed once so
// delta-restricted validation (Validate) can skip the
// constraints a mutation provably cannot violate.
type classCons struct {
	object   []expr.Node             // object constraint formulas
	objectGC []core.GlobalConstraint // same constraints, with provenance
	// objectAttrs[i] is the attribute footprint of object[i]: the
	// self-rooted attributes its truth value can depend on.
	objectAttrs []map[string]bool
	// objectExt[i] reports whether object[i] reads class extensions
	// (quantifier or aggregate): such a constraint can flip on any
	// extent-changing mutation, so the delta rule always re-checks it.
	objectExt []bool
	keys      []core.GlobalConstraint // key constraints (Expr is expr.Key)
}

// New builds an engine over an integration result with optimisation and
// indexing on. The engine shares the derivation's checker, so entailment
// queries the planner repeats across predicate shapes — and queries
// already answered during derivation — are served from the shared memo
// table.
func New(res *core.Result) *Engine {
	var ck *logic.Checker
	if res.Derivation != nil {
		ck = res.Derivation.Checker
	}
	if ck == nil {
		ck = &logic.Checker{Types: res.Conformed.Types}
	}
	e := &Engine{
		res:            res,
		checker:        ck,
		UseConstraints: true,
		UseIndexes:     true,
		CostGate:       true,
		cons:           map[string]*classCons{},
		mcons:          map[string]*consGroup{},
		epochs:         newEpochTable(),
		deep:           map[string]*classSlot{},
		health:         newHealthTracker(),
		journal:        newCommitJournal(),
	}
	e.installAllLocked()
	return e
}

// consFor returns the cached scope-all constraints of a class, collected
// from the derivation exactly once per class. The cached struct is
// immutable after publication, so the read path shares a lock.
func (e *Engine) consFor(class string) *classCons {
	e.cmu.RLock()
	cc, ok := e.cons[class]
	e.cmu.RUnlock()
	if ok {
		return cc
	}
	e.cmu.Lock()
	defer e.cmu.Unlock()
	if cc, ok := e.cons[class]; ok {
		return cc
	}
	cc = &classCons{}
	for _, gc := range e.res.Derivation.GlobalFor(class, core.ScopeAll) {
		if _, isKey := gc.Expr.(expr.Key); isKey {
			cc.keys = append(cc.keys, gc)
			continue
		}
		if gc.Kind != schema.ObjectConstraint {
			continue
		}
		cc.object = append(cc.object, gc.Expr)
		cc.objectGC = append(cc.objectGC, gc)
		cc.objectAttrs = append(cc.objectAttrs, expr.AttrsUsed(gc.Expr))
		cc.objectExt = append(cc.objectExt, expr.UsesExtents(gc.Expr))
	}
	e.cons[class] = cc
	return cc
}

// Run executes a query against the published snapshot — without taking
// the engine lock, so readers never serialise behind mutations. It is
// RunContext with context.Background(): never cancelled, kept for
// in-process callers that have no deadline to propagate.
func (e *Engine) Run(q Query) ([]Row, Stats, error) {
	return e.RunContext(context.Background(), q)
}

// ctxCheckRows is how many rows a serving or validation loop processes
// between context-cancellation checks: coarse enough that the check is
// free on the fast path, fine enough that a disconnected client stops
// burning CPU within microseconds on large extents.
const ctxCheckRows = 256

// RunContext executes a query against the published snapshot — without
// taking the engine lock, so readers never serialise behind mutations.
// With UseConstraints, the derived global constraints prune provably-
// empty queries without touching the extent and drop implied conjuncts
// from the residual predicate — when the cost gate judges the solver
// work worthwhile (planner.go). With UseIndexes, sargable conjuncts
// (equality, range and finite-set restrictions on stored attributes)
// are answered from lazily-built extent indexes and the remaining
// predicate is compiled once per plan. All of it is planned once per
// (class, predicate, flags) and replayed from the plan cache on
// repetition.
//
// The context is checked at the scan-loop and solver-call boundaries: a
// cancelled ctx terminates the query with ctx.Err() mid-scan, and a
// plan build aborted by cancellation is discarded rather than cached —
// the snapshot and the plan cache are never poisoned by a client that
// went away (reads never mutate either; pinned by TestRunContext*).
func (e *Engine) RunContext(ctx context.Context, q Query) ([]Row, Stats, error) {
	// Pin the snapshot in an epoch slot (epoch.go) so concurrent
	// publications cannot reclaim the class versions this query reads.
	s, slot := e.pin()
	defer e.unpin(slot)
	cs := s.class(q.Class)
	var stats Stats
	stats.Degraded = e.health.degradedMembers()

	// With q.Where == nil there is nothing to refute, simplify or
	// index, so no plan is needed: project every row. (Serving pinned
	// constants without reading the extent would fabricate attributes
	// absent objects lack — see TestPinnedSelectShortCircuitOutOfScope.)
	if q.Where == nil {
		stats.CandidateRows = len(cs.ext)
		var rows []Row
		for i, g := range cs.ext {
			if i%ctxCheckRows == 0 && ctx.Err() != nil {
				return nil, stats, ctx.Err()
			}
			stats.Scanned++
			rows = append(rows, projectRow(g, q.Select))
		}
		return rows, stats, nil
	}

	useCons, useIdx := e.UseConstraints, e.UseIndexes
	p, hit, err := e.planFor(ctx, s, cs, q.Where, useCons, useIdx)
	if hit {
		slot.planHits.Add(1)
	} else {
		slot.planMisses.Add(1)
	}
	if err != nil {
		return nil, stats, err
	}
	stats.PlanCached = hit
	stats.PrunedEmpty = p.pruned
	stats.DroppedConjuncts = p.dropped
	stats.ConstraintGated = p.gated
	if p.pruned {
		return nil, stats, nil
	}

	evalRow := func(g *core.GObj) (bool, error) {
		stats.Scanned++
		if p.residual == nil {
			return true, nil
		}
		var ok bool
		var err error
		if p.interp {
			ok, err = s.env(cs, g).EvalBool(p.residual)
		} else {
			ok, err = p.prog.EvalBool(s.env(cs, g))
		}
		if err != nil {
			return false, fmt.Errorf("query on %s: %w", q.Class, err)
		}
		return ok, nil
	}

	var rows []Row
	if p.served > 0 {
		stats.IndexHits = p.served
		stats.CandidateRows = len(p.positions)
		for i, pos := range p.positions {
			if i%ctxCheckRows == 0 && ctx.Err() != nil {
				return nil, stats, ctx.Err()
			}
			g := cs.ext[pos]
			ok, err := evalRow(g)
			if err != nil {
				return nil, stats, err
			}
			if ok {
				rows = append(rows, projectRow(g, q.Select))
			}
		}
		return rows, stats, nil
	}
	stats.CandidateRows = len(cs.ext)
	for i, g := range cs.ext {
		if i%ctxCheckRows == 0 && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		ok, err := evalRow(g)
		if err != nil {
			return nil, stats, err
		}
		if ok {
			rows = append(rows, projectRow(g, q.Select))
		}
	}
	return rows, stats, nil
}

func projectRow(g *core.GObj, sel []string) Row {
	row := Row{}
	if len(sel) == 0 {
		for k, v := range g.Attrs {
			row[k] = v
		}
		return row
	}
	for _, a := range sel {
		if v, ok := g.Get(a); ok {
			row[a] = v
		}
	}
	return row
}

func conjuncts(n expr.Node) []expr.Node {
	if b, ok := n.(expr.Binary); ok && b.Op == expr.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Node{n}
}

func conjoinNodes(ns []expr.Node) expr.Node {
	if len(ns) == 0 {
		return nil
	}
	out := ns[0]
	for _, n := range ns[1:] {
		out = expr.Binary{Op: expr.OpAnd, L: out, R: n}
	}
	return out
}

// Rejection explains why a mutation was rejected before shipping, and —
// when the engine can compute one — carries minimal-change repair
// proposals that would make the mutation acceptable.
type Rejection struct {
	Constraint core.GlobalConstraint
	Detail     string
	// Repairs lists verified minimal-change proposals (smallest attribute
	// adjustment, or a tuple deletion for key conflicts) that restore
	// consistency; empty when no mechanical repair was found.
	Repairs []Repair
}

// Error implements error.
func (r Rejection) Error() string {
	return fmt.Sprintf("update rejected by global constraint %s: %s", r.Constraint.Expr, r.Detail)
}

// Result returns the integration result the engine serves. Mutating the
// view behind the engine's back bypasses its locking and snapshot
// publication — treat it as read-only and mutate through Ship
// (or, for federation membership changes, through Rebind).
func (e *Engine) Result() *core.Result { return e.res }

// Rebind applies a federation membership change to the result the
// engine serves. apply runs under the engine's write lock AND the
// constraint-cache lock, so it may mutate the live view, swap the
// result's Derivation and constants, and so on — concurrent lock-free
// readers keep serving the previous snapshot (whose classStates, deref
// table and checker are self-contained), and every locked path
// (Validate, Ship, CheckAll, the mutex+scan reference) is held off.
// apply returns the classes whose serving state changed and the classes
// that ceased to exist; Rebind then drops the constraint caches (they
// rebuild lazily, without solver work), adopts the new derivation's
// checker, and publishes ONE snapshot in which only the changed classes
// were rebuilt — untouched classes carry their extent, indexes and
// cached plans across the membership change (Stats.PlanCached keeps
// hitting), and readers observe whole pre- or post-membership states,
// never a torn mix.
//
// If apply fails the whole snapshot is republished from the live view —
// the same conservative fallback Ship's error paths use.
func (e *Engine) Rebind(apply func() (changed, removed []string, err error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Drain any publication staged by an unflushed Ship call before the
	// membership mutation: the carry-over below copies each untouched
	// class's CURRENT serving state into the fresh slot map.
	e.flushLocked()
	e.cmu.Lock()
	changed, removed, err := apply()
	e.cons = map[string]*classCons{}
	e.mcons = map[string]*consGroup{}
	if e.res.Derivation != nil && e.res.Derivation.Checker != nil {
		e.checker = e.res.Derivation.Checker
	}
	e.cmu.Unlock()
	if err != nil {
		e.installAllLocked()
		return err
	}
	e.publishMembershipLocked(changed, removed)
	return nil
}

// ReadLocked runs fn under the engine's read lock, holding off Ship
// mutations and membership changes for its duration. Use it to read the
// live view consistently (e.g. rendering a report) while the engine is
// serving traffic.
func (e *Engine) ReadLocked(fn func()) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn()
}

// Classes lists the queryable global classes in sorted order. It reads
// the live view under the engine's read lock (a membership change
// rewrites the class list under the write lock): call it for listings,
// and HasClass on a request path.
func (e *Engine) Classes() []string {
	e.mu.RLock()
	out := append([]string{}, e.res.View.ClassNames...)
	e.mu.RUnlock()
	sort.Strings(out)
	return out
}

// HasClass reports whether the published snapshot serves the class —
// what RunContext would read. Lock-free and allocation-free: the
// snapshot's class map is immutable.
func (e *Engine) HasClass(name string) bool {
	return e.snap.Load().hasClass(name)
}

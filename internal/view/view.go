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
// repeated query performs no solver work and no compilation. With
// UseIndexes off, Run is instead the locked reference scan the planned
// path is tested against (planner.go, runReference).
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

// Row is one query result: attribute name → value. A row returned by
// Run or RunContext is the object's memoised projection
// (core.GObj.Project): a frozen image shared between callers, like the
// object it projects, so it must not be modified.
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
// the write lock while mutating the live view and publishes the next
// snapshot before releasing it. The UseConstraints/UseIndexes toggles
// are plain fields for the differential tests and the benchmark's
// oracles and must not be flipped concurrently with serving.
type Engine struct {
	res     *core.Result
	checker *logic.Checker
	// UseConstraints toggles constraint-based optimisation; off, the
	// engine behaves like the drop-all baseline.
	UseConstraints bool
	// UseIndexes selects the planned serving path: snapshot, plan cache,
	// extent indexes and a residual compiled once per plan. Off, Run is
	// the reference (runReference: engine read lock, live extent,
	// tree-walking interpreter) and Validate answers key uniqueness by
	// extent scan alone — the semantics the differential tests and the
	// benchmark's oracles compare against.
	UseIndexes bool

	// mu serialises the live view: Validate, CheckAll and ReadLocked
	// hold it for read; Ship, Reconcile and Rebind hold it for write
	// while they change the live view AND publish the matching
	// snapshot, so whenever mu is free the published snapshot equals the
	// live view (TestConcurrentWritersPublishInLock). Run does NOT take
	// it.
	mu sync.RWMutex

	// snap is the published serving snapshot (snapshot.go). A reader
	// loads it once and serves from that pointer; the collector frees a
	// retired snapshot once no reader holds it.
	snap atomic.Pointer[snapshot]

	// keys holds Validate's key-holder indexes (mutate.go, keyIndex),
	// by class and key attributes. Guarded by mu: built under either
	// half (kmu serialises concurrent builders), maintained and dropped
	// under the write lock.
	kmu  sync.Mutex
	keys map[string]*keyIndex

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
	// chain is the classes an insert into the class joins
	// (insertChainClasses); insert caches their constraint group, set
	// by the first insert validated (insertGroup).
	chain  []string
	insert atomic.Pointer[consGroup]
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
		cons:           map[string]*classCons{},
		mcons:          map[string]*consGroup{},
		health:         newHealthTracker(),
		journal:        newCommitJournal(),
	}
	e.publishStructuralLocked(nil)
	return e
}

// consFor returns the cached scope-all constraints of a class, collected
// from the derivation exactly once per class. The cached struct is
// immutable after publication (its insert group is set once, atomically),
// so the read path shares a lock.
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
	cc.chain = e.insertChainClasses(class)
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
// work worthwhile (planner.go). Sargable conjuncts (equality, range
// and finite-set restrictions on stored attributes) are answered from
// lazily-built extent indexes and the remaining predicate is compiled
// once per plan. All of it is planned once per (class, predicate,
// UseConstraints) and replayed from the plan cache on repetition. With
// UseIndexes off it returns the reference scan (runReference) instead.
//
// The context is checked at the scan-loop and solver-call boundaries: a
// cancelled ctx terminates the query with ctx.Err() mid-scan, and a
// plan build aborted by cancellation is discarded rather than cached —
// the snapshot and the plan cache are never poisoned by a client that
// went away (reads never mutate either; pinned by TestRunContext*).
//
// The returned rows are frozen images shared between callers (see Row):
// read them, never modify them.
func (e *Engine) RunContext(ctx context.Context, q Query) ([]Row, Stats, error) {
	if !e.UseIndexes {
		return e.runReference(ctx, q)
	}
	// Hold one snapshot for the whole query: later publications swap
	// e.snap but never change what s maps.
	return e.runSnapshot(ctx, e.snap.Load(), q)
}

// runSnapshot serves a query from one snapshot: RunContext's planned
// path, for the published snapshot or one a caller holds.
func (e *Engine) runSnapshot(ctx context.Context, s *snapshot, q Query) ([]Row, Stats, error) {
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
		if len(cs.ext) > 0 {
			rows = make([]Row, 0, len(cs.ext))
		}
		for i, g := range cs.ext {
			if i%ctxCheckRows == 0 && ctx.Err() != nil {
				return nil, stats, ctx.Err()
			}
			stats.Scanned++
			rows = append(rows, Row(g.Project(q.Select)))
		}
		return rows, stats, nil
	}

	p, hit, err := e.planFor(ctx, s, cs, q.Where, e.UseConstraints)
	if hit {
		e.counters.planHits.Add(1)
	} else {
		e.counters.planMisses.Add(1)
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

	cand := len(cs.ext)
	if p.served > 0 {
		stats.IndexHits = p.served
		cand = len(p.positions)
	}
	stats.CandidateRows = cand
	if p.cols != nil && cand > 0 {
		return e.runColumns(ctx, s, cs, p, q, stats)
	}
	// One environment serves every candidate: built on the first
	// residual evaluation (an index-only plan never builds it), then
	// only Self is rebound per row. Without a residual every candidate
	// is an answer, so the result is sized once.
	var env *expr.Env
	var rows []Row
	if p.prog == nil && cand > 0 {
		rows = make([]Row, 0, cand)
	}
	for i := range cand {
		if i%ctxCheckRows == 0 && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		pos := i
		if p.served > 0 {
			pos = p.positions[i]
		}
		g := cs.ext[pos]
		stats.Scanned++
		if p.prog != nil {
			if env == nil {
				env = s.queryEnv()
			}
			env.Self = g
			ok, err := p.prog.EvalBool(env)
			if err != nil {
				return nil, stats, fmt.Errorf("query on %s: %w", q.Class, err)
			}
			if !ok {
				continue
			}
		}
		rows = append(rows, Row(g.Project(q.Select)))
	}
	return rows, stats, nil
}

// projectRow builds a fresh row: the reference scan's projection, which
// the differential suites compare against the snapshot path's memoised
// rows (core.GObj.Project).
func projectRow(g *core.GObj, sel []string) Row {
	if len(sel) == 0 {
		return Row(g.Attrs())
	}
	row := make(Row, len(sel))
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
// checker, and publishes ONE structural snapshot over the live class
// set in which only the changed classes were rebuilt — untouched
// classes carry their extent, indexes and cached plans across the
// membership change (Stats.PlanCached keeps hitting), and readers
// observe whole pre- or post-membership states, never a torn mix. The
// removed result is ignored: removed classes have already left the live
// class set, and the publication drops them with it.
//
// If apply fails every class is rebuilt from the live view — the same
// conservative fallback Ship's error paths use.
func (e *Engine) Rebind(apply func() (changed, removed []string, err error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cmu.Lock()
	changed, _, err := apply()
	e.keys = nil
	e.cons = map[string]*classCons{}
	e.mcons = map[string]*consGroup{}
	if e.res.Derivation != nil && e.res.Derivation.Checker != nil {
		e.checker = e.res.Derivation.Checker
	}
	e.cmu.Unlock()
	if err != nil {
		changed = e.res.View.ClassNames
	}
	e.publishStructuralLocked(changed)
	return err
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

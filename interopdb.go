// Package interopdb is a constraint-aware database interoperation engine:
// a from-scratch Go reproduction of
//
//	M.W.W. Vermeer and P.M.G. Apers,
//	"The Role of Integrity Constraints in Database Interoperation",
//	Proceedings of the 22nd VLDB Conference, 1996.
//
// The engine integrates autonomous component databases instance-by-
// instance (objects, not classes, are the unit of integration) and puts
// the component databases' integrity constraints to the paper's two uses:
//
//  1. Derivation — a set of constraints valid on the integrated view is
//     derived from the locally enforced ones, enabling global query
//     optimisation and update-transaction validation.
//  2. Validation — the local constraints act as a semantic check on the
//     integration specification itself; conflicts are detected and
//     concrete repairs (re-marking constraints, strengthening comparison
//     rules, adding approximate-similarity fallbacks, changing decision
//     functions) are suggested.
//
// # Quick start
//
//	lib := interopdb.MustParseDatabase(interopdb.FigureOneCSLibrary)
//	bs := interopdb.MustParseDatabase(interopdb.FigureOneBookseller)
//	is := interopdb.MustParseIntegration(interopdb.FigureOneIntegration)
//	local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{})
//	res, err := interopdb.Integrate(lib, bs, is, local, remote, 1)
//	if err != nil { ... }
//	fmt.Println(res.Report())
//
// # Federation
//
// Membership is dynamic: NewFederation attaches component databases at
// runtime (each integrated pairwise against an existing member and
// grafted incrementally onto the live combined view) and detaches them
// again, retracting their constraints by provenance — see Federation
// and DESIGN.md §9.
//
// See the examples/ directory for complete programs, DESIGN.md for the
// architecture, and PAPERMAP.md for a section-by-section map from the
// paper to the code.
package interopdb

import (
	"interopdb/internal/baseline"
	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/logic"
	"interopdb/internal/object"
	"interopdb/internal/schema"
	"interopdb/internal/store"
	"interopdb/internal/tm"
	"interopdb/internal/view"
	"interopdb/internal/workload"
)

// ---------------------------------------------------------------------------
// Specification language (internal/tm)

// DatabaseSpec is a parsed TM-style database specification.
type DatabaseSpec = tm.DatabaseSpec

// IntegrationSpec is a parsed integration specification (comparison
// rules, property equivalences, constraint marks).
type IntegrationSpec = tm.IntegrationSpec

// ParseDatabase parses and validates a TM-style database specification.
func ParseDatabase(src string) (*DatabaseSpec, error) { return tm.ParseDatabase(src) }

// MustParseDatabase parses a database specification and panics on error.
func MustParseDatabase(src string) *DatabaseSpec { return tm.MustParseDatabase(src) }

// ParseIntegration parses an integration specification.
func ParseIntegration(src string) (*IntegrationSpec, error) { return tm.ParseIntegration(src) }

// MustParseIntegration parses an integration specification, panicking on
// error.
func MustParseIntegration(src string) *IntegrationSpec { return tm.MustParseIntegration(src) }

// The paper's running examples, embedded as canonical sources.
const (
	// FigureOneCSLibrary is the CSLibrary database of Figure 1.
	FigureOneCSLibrary = tm.FigureOneCSLibrary
	// FigureOneBookseller is the Bookseller database of Figure 1.
	FigureOneBookseller = tm.FigureOneBookseller
	// FigureOneIntegration is the §2.2 integration specification.
	FigureOneIntegration = tm.FigureOneIntegration
	// FigureOneIntegrationRepaired is the conflict-free variant with the
	// engine's suggested repairs applied (r5 as approximate similarity).
	FigureOneIntegrationRepaired = tm.FigureOneIntegrationRepaired
	// FigureOneUnivArchive is the third bibliographic source used by the
	// N-way federation scenarios.
	FigureOneUnivArchive = tm.FigureOneUnivArchive
	// FigureOneArchiveIntegration pairs UnivArchive with CSLibrary.
	FigureOneArchiveIntegration = tm.FigureOneArchiveIntegration
	// IntroPersonnelDB1 is department database DB1 of the introduction.
	IntroPersonnelDB1 = tm.IntroPersonnelDB1
	// IntroPersonnelDB2 is department database DB2 of the introduction.
	IntroPersonnelDB2 = tm.IntroPersonnelDB2
	// IntroPersonnelIntegration integrates the two departments.
	IntroPersonnelIntegration = tm.IntroPersonnelIntegration
)

// ---------------------------------------------------------------------------
// Component database engine (internal/store)

// Store is an in-memory component database enforcing its schema's
// object, class and database constraints.
type Store = store.Store

// StoredObject is an object held by a Store.
type StoredObject = store.Obj

// StoreBackend is the serving-time surface of a member database:
// transactional writes, point reads and liveness probes. *Store
// satisfies it; the federation registry holds members through it so a
// member can be served via a wrapper (e.g. fault injection).
type StoreBackend = store.Backend

// StoreTxn is a member-local deferred-validation transaction.
type StoreTxn = store.Txn

// ErrStoreUnavailable marks transient member failures worth retrying
// (the routed shipping path retries them with backoff automatically).
var ErrStoreUnavailable = store.ErrUnavailable

// Violation describes one constraint violation found by a Store.
type Violation = store.Violation

// NewStore creates a component database over a parsed specification.
func NewStore(spec *DatabaseSpec) *Store { return store.New(spec.Schema, spec.Consts) }

// ---------------------------------------------------------------------------
// Values (internal/object)

// Value is a database value (Int, Real, Str, Bool, Set, Ref, Null).
type Value = object.Value

// Convenience value constructors and types.
type (
	// Int is a 64-bit integer value.
	Int = object.Int
	// Real is a double-precision value.
	Real = object.Real
	// Str is a string value.
	Str = object.Str
	// Bool is a boolean value.
	Bool = object.Bool
	// Ref is an object reference.
	Ref = object.Ref
	// Null is the absent value.
	Null = object.Null
	// Set is a finite set value.
	Set = object.Set
	// OID identifies an object within a component database.
	OID = object.OID
)

// NewSet builds a set value from elements.
func NewSet(elems ...Value) Set { return object.NewSet(elems...) }

// ---------------------------------------------------------------------------
// Integration pipeline (internal/core)

// Result bundles the artifacts of a full integration run (Figure 3's
// stages): compiled spec, conformed world, merged global view, and the
// derived constraints with conflicts.
type Result = core.Result

// Spec is a compiled integration specification with its subjectivity
// assignment.
type Spec = core.Spec

// Conformed is the output of the conformation phase (§4).
type Conformed = core.Conformed

// GlobalView is the merged integrated view (§2.3).
type GlobalView = core.GlobalView

// GlobalObject is one object of the integrated view.
type GlobalObject = core.GObj

// Derivation carries the global constraint set and detected conflicts
// (§3, §5.2).
type Derivation = core.Derivation

// GlobalConstraint is a constraint on the integrated view.
type GlobalConstraint = core.GlobalConstraint

// Conflict is a detected inconsistency between local constraints and the
// integration specification.
type Conflict = core.Conflict

// Suggestion is a concrete repair proposal for a conflict.
type Suggestion = core.Suggestion

// SpecIssue is a non-fatal specification finding (consistency-law
// violations and downgrades, §5.1.3).
type SpecIssue = core.SpecIssue

// Compile validates an integration specification against its component
// databases and computes the subjectivity assignment (§5.1).
func Compile(local, remote *DatabaseSpec, is *IntegrationSpec) (*Spec, error) {
	return core.Compile(local, remote, is)
}

// Integrate runs the full pipeline: compile → conform → merge → derive.
// seed drives the non-determinism of conflict-ignoring decision functions.
// It executes with default options: a GOMAXPROCS-sized worker pool over
// the reasoning-heavy stages and memoized entailment. The result is
// deterministic regardless of parallelism.
func Integrate(local, remote *DatabaseSpec, is *IntegrationSpec, ls, rs *Store, seed int64) (*Result, error) {
	return core.Integrate(local, remote, is, ls, rs, seed)
}

// PipelineOptions configures pipeline execution: Parallelism bounds the
// worker pool (0 = GOMAXPROCS, 1 = sequential), NoMemo disables the
// reasoner's entailment cache. Output is byte-identical for every
// setting; the knobs trade wall time only.
type PipelineOptions = core.Options

// IntegrateOptions runs the full pipeline under explicit execution
// options.
func IntegrateOptions(local, remote *DatabaseSpec, is *IntegrationSpec, ls, rs *Store, seed int64, opts PipelineOptions) (*Result, error) {
	return core.IntegrateOptions(local, remote, is, ls, rs, seed, opts)
}

// ReasonerCacheStats reports entailment-cache effectiveness; retrieve a
// run's stats with res.Derivation.CacheStats().
type ReasonerCacheStats = logic.CacheStats

// Conflict kinds (§3, §5.2.1).
const (
	ConflictRuleVsConstraint = core.ConflictRuleVsConstraint
	ConflictExplicit         = core.ConflictExplicit
	ConflictImplicit         = core.ConflictImplicit
	ConflictStrictSim        = core.ConflictStrictSim
)

// Repair suggestion kinds (§5.2.1's options plus the approximate-
// similarity fallback).
const (
	SuggestMarkSubjective = core.SuggestMarkSubjective
	SuggestStrengthenRule = core.SuggestStrengthenRule
	SuggestAddApproxRule  = core.SuggestAddApproxRule
	SuggestChangeDecision = core.SuggestChangeDecision
)

// Constraint scopes on the integrated view.
const (
	ScopeAll        = core.ScopeAll
	ScopeMerged     = core.ScopeMerged
	ScopeLocalOnly  = core.ScopeLocalOnly
	ScopeRemoteOnly = core.ScopeRemoteOnly
)

// ---------------------------------------------------------------------------
// Constraint language and reasoning (internal/expr, internal/logic)

// Expr is a parsed constraint formula.
type Expr = expr.Node

// ParseExpr parses a constraint formula.
func ParseExpr(src string) (Expr, error) { return expr.Parse(src) }

// MustParseExpr parses a formula and panics on error.
func MustParseExpr(src string) Expr { return expr.MustParse(src) }

// Checker answers satisfiability and entailment queries over the
// decidable constraint fragment.
type Checker = logic.Checker

// Verdict is the tri-state answer of a reasoning query.
type Verdict = logic.Verdict

// Reasoning verdicts.
const (
	Yes     = logic.Yes
	No      = logic.No
	Unknown = logic.Unknown
)

// ---------------------------------------------------------------------------
// Integrated-view query engine (internal/view)

// QueryEngine runs queries over an integration result, using the derived
// global constraints to prune provably-empty subqueries, and validates
// updates before they are shipped to the component databases.
type QueryEngine = view.Engine

// Query is a select-from-where over a global class.
type Query = view.Query

// QueryStats reports what the optimiser did.
type QueryStats = view.Stats

// Row is one query result.
type Row = view.Row

// NewQueryEngine builds a query engine over an integration result.
func NewQueryEngine(res *Result) *QueryEngine { return view.New(res) }

// Rejection explains why a mutation was rejected before shipping; it
// carries the violated global constraint and minimal-change repair
// proposals. It implements error and matches ErrRejected via errors.Is.
type Rejection = view.Rejection

// Rejections is a batch of constraint rejections as one error value:
// errors.Is matches ErrRejected, errors.As recovers the full slice with
// every repair proposal intact — the form internal/server returns over
// the wire.
type Rejections = view.Rejections

// Typed failure sentinels for the serving API (errors.Is). The engine's
// context-aware entrypoints — RunContext, Validate and Ship — wrap
// their failures so transport layers map them to responses without
// string matching.
var (
	// ErrRejected marks mutations refused by the derived global
	// constraints.
	ErrRejected = view.ErrRejected
	// ErrUnknownClass marks references to global classes the integrated
	// view does not serve.
	ErrUnknownClass = view.ErrUnknownClass
	// ErrUnknownObject marks update/delete targets that do not exist in
	// the integrated view.
	ErrUnknownObject = view.ErrUnknownObject
	// ErrPartialCommit marks a cross-member batch that failed after at
	// least one autonomous member database had committed. The batch must
	// not be retried wholesale; the committed prefix is journaled and
	// QueryEngine.Reconcile completes or compensates it when the failed
	// member heals (errors.As recovers *PartialCommitError).
	ErrPartialCommit = view.ErrPartialCommit
	// ErrMemberUnavailable marks writes refused before any member
	// committed, because a target member is down or quarantined by its
	// circuit breaker. Retry wholesale after the hinted backoff
	// (errors.As recovers *MemberUnavailableError).
	ErrMemberUnavailable = view.ErrMemberUnavailable
	// ErrNoStores marks a Ship call on an engine with no member stores
	// bound — one built by NewQueryEngine rather than by a Federation.
	ErrNoStores = view.ErrNoStores
)

// MemberUnavailableError carries the quarantined member and the
// Retry-After hint behind ErrMemberUnavailable.
type MemberUnavailableError = view.MemberUnavailableError

// PartialCommitError carries the committed/pending member split and the
// journal position behind ErrPartialCommit.
type PartialCommitError = view.PartialCommitError

// RetryPolicy bounds transient member-commit retries on the routed
// shipping path (QueryEngine.Retry).
type RetryPolicy = view.RetryPolicy

// HealthReport is the engine's fault-handling state: breaker positions,
// pending commit journal, last reconcile pass (QueryEngine.Health).
type HealthReport = view.HealthReport

// MemberHealth is one member's circuit-breaker entry in a HealthReport.
type MemberHealth = view.MemberHealth

// ReconcileStats reports one QueryEngine.Reconcile pass.
type ReconcileStats = view.ReconcileStats

// FaultStats snapshots the engine's fault-handling counters.
type FaultStats = view.FaultStats

// Repair is one verified minimal-change proposal attached to a
// Rejection: the smallest attribute adjustment, or a tuple deletion for
// key conflicts.
type Repair = view.Repair

// RepairKind discriminates Repair proposals.
type RepairKind = view.RepairKind

// Repair proposal kinds.
const (
	RepairSetAttr     = view.RepairSetAttr
	RepairDeleteTuple = view.RepairDeleteTuple
)

// Mutation is one staged operation of a batch transaction against the
// integrated view. QueryEngine.Validate and QueryEngine.Ship take
// batches of them and are the only mutation entrypoints: a singleton
// insert, update or delete is a one-element batch.
type Mutation = view.Mutation

// MutationKind discriminates Mutation operations.
type MutationKind = view.MutationKind

// Mutation kinds.
const (
	MutInsert = view.MutInsert
	MutUpdate = view.MutUpdate
	MutDelete = view.MutDelete
)

// ValidateStats counts the constraint×row work a validation performed,
// making the delta restriction's saving over a full CheckAll observable.
type ValidateStats = view.ValidateStats

// ParseQuery parses the textual query form, e.g.
// "select title, rating from Proceedings where rating >= 7".
func ParseQuery(src string) (Query, error) { return view.ParseQuery(src) }

// ---------------------------------------------------------------------------
// Fixtures, workloads, baselines

// FixtureOptions tweak the Figure 1 instance population.
type FixtureOptions = fixture.Options

// Figure1Stores populates the paper's Figure 1 databases with the worked
// examples' instances.
func Figure1Stores(opt FixtureOptions) (local, remote *Store) { return fixture.Figure1Stores(opt) }

// PersonnelStores populates the introduction's department databases.
func PersonnelStores() (db1, db2 *Store) { return fixture.PersonnelStores() }

// ArchiveStore populates the UnivArchive database — the third member of
// the federation scenarios.
func ArchiveStore(opt FixtureOptions) *Store { return fixture.ArchiveStore(opt) }

// Figure1Library returns the parsed CSLibrary specification.
func Figure1Library() *DatabaseSpec { return tm.Figure1Library() }

// Figure1UnivArchive returns the parsed UnivArchive specification (the
// third bibliographic source of the federation scenarios).
func Figure1UnivArchive() *DatabaseSpec { return tm.Figure1UnivArchive() }

// Figure1ArchiveIntegration returns the parsed CSLibrary/UnivArchive
// integration specification.
func Figure1ArchiveIntegration() *IntegrationSpec { return tm.Figure1ArchiveIntegration() }

// Figure1Bookseller returns the parsed Bookseller specification.
func Figure1Bookseller() *DatabaseSpec { return tm.Figure1Bookseller() }

// Figure1Integration returns the parsed §2.2 integration specification.
func Figure1Integration() *IntegrationSpec { return tm.Figure1Integration() }

// Figure1IntegrationRepaired returns the conflict-free variant of the
// §2.2 specification (the engine's suggested repairs applied).
func Figure1IntegrationRepaired() *IntegrationSpec { return tm.Figure1IntegrationRepaired() }

// Personnel1 returns the introduction's DB1 specification.
func Personnel1() *DatabaseSpec { return tm.Personnel1() }

// Personnel2 returns the introduction's DB2 specification.
func Personnel2() *DatabaseSpec { return tm.Personnel2() }

// PersonnelIntegration returns the introduction's integration spec.
func PersonnelIntegration() *IntegrationSpec { return tm.PersonnelIntegration() }

// WorkloadParams controls the synthetic bibliographic generator.
type WorkloadParams = workload.Params

// DefaultWorkloadParams returns a mid-sized bibliographic workload.
func DefaultWorkloadParams() WorkloadParams { return workload.DefaultParams() }

// BibliographicWorkload generates seeded synthetic component databases
// over the Figure 1 schemas.
func BibliographicWorkload(p WorkloadParams) (local, remote *Store) {
	return workload.Bibliographic(p)
}

// PersonnelWorkloadParams controls the personnel generator.
type PersonnelWorkloadParams = workload.PersonnelParams

// PersonnelWorkload generates the introduction's departments at scale.
func PersonnelWorkload(p PersonnelWorkloadParams) (db1, db2 *Store) {
	return workload.Personnel(p)
}

// ClassCorrespondence asserts a [BLN86]-style class-level equivalence
// for the class-based baseline.
type ClassCorrespondence = baseline.ClassCorrespondence

// ClassBasedClassification classifies remote objects wholesale through
// class correspondences (the traditional baseline).
func ClassBasedClassification(res *Result, corrs []ClassCorrespondence) map[Ref][]string {
	return baseline.ClassBasedClassification(res, corrs)
}

// CompareClassification measures a class-based classification against the
// instance-based ground truth.
func CompareClassification(res *Result, cb map[Ref][]string, localClasses []string) baseline.ClassificationQuality {
	return baseline.CompareClassification(res, cb, localClasses)
}

// UnionAllFalseRejects counts valid integrated states the naive
// all-constraints-objective baseline would reject.
func UnionAllFalseRejects(res *Result, class string) (falseRejects, total int) {
	return baseline.FalseRejects(res, class)
}

// SchemaDatabase is a structural schema (classes, attributes, isa).
type SchemaDatabase = schema.Database

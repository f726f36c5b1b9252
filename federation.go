package interopdb

import (
	"context"
	"fmt"
	"sync"

	"interopdb/internal/core"
	"interopdb/internal/logic"
	"interopdb/internal/store"
	"interopdb/internal/view"
)

// Federation is an N-member interoperation: autonomous component
// databases attached and detached at runtime, integrated pairwise
// against existing members, and served as ONE integrated view with one
// derived global constraint set.
//
// Membership changes are incremental. Attach runs the full pipeline —
// conformation, entity resolution, Sim classification, constraint
// derivation — for the NEW PAIR ONLY (reusing the federation's shared
// reasoning memo), then grafts the result onto the live combined state:
// objects already known keep their identity and gain the new member's
// constituents, the pair's constraints merge in with provenance tags,
// and the query engine republishes only the affected classes — every
// untouched class keeps its snapshot, extent indexes and cached query
// plans. Detach strips the member's constituents and classes, retracts
// every global constraint whose provenance empties, and reclassifies
// the merged objects it touched.
//
// Reads and mutations stay live across membership changes: Attach and
// Detach apply under the engine's write lock and publish exactly one
// snapshot, so concurrent Run/Validate/Ship callers observe whole
// pre- or post-membership states, never a torn mix.
//
// The first Attach seeds the federation (no integration spec); every
// later Attach supplies the integration spec pairing the new member
// with one existing member. A two-member federation is byte-identical
// to the pairwise Integrate — existing code and tests keep working
// unchanged on top of it.
type Federation struct {
	mu      sync.Mutex
	seed    int64
	opts    PipelineOptions
	memo    *logic.Memo
	stores  *store.Registry
	members []*FederationMember
	state   *core.FedState
	engine  *view.Engine
	// lastAttach records the reasoning work of the most recent Attach's
	// pair derivation; totalReason accumulates it across the
	// federation's lifetime.
	lastAttach  ReasonerCacheStats
	totalReason ReasonerCacheStats
}

// FederationMember records one attached component database.
type FederationMember struct {
	// Name is the member's database name (its schema's name).
	Name string
	// Spec is the member's parsed database specification.
	Spec *DatabaseSpec
	// Store is the member's component database.
	Store *Store
	// ISpec is the integration specification that attached the member
	// (nil for the seed).
	ISpec *IntegrationSpec
	// Base is the existing member ISpec paired the member with (empty
	// for the seed).
	Base string
}

// StoreRegistry is the federation's member-store registry; the engine's
// Ship routes through it.
type StoreRegistry = store.Registry

// NewFederation creates an empty federation. seed drives the
// non-determinism of conflict-ignoring decision functions in every pair
// integration (as in Integrate); opts configures pipeline execution for
// all of them. All pair integrations share one reasoning memo, so
// entailment work done by one Attach is reused by the next.
func NewFederation(seed int64, opts PipelineOptions) *Federation {
	memo := logic.NewMemo()
	if opts.Memo == nil {
		opts.Memo = memo
	} else {
		memo = opts.Memo
	}
	return &Federation{
		seed:   seed,
		opts:   opts,
		memo:   memo,
		stores: store.NewRegistry(),
	}
}

// Attach is AttachContext with context.Background() — a documented
// wrapper kept for in-process callers with no deadline to propagate.
func (f *Federation) Attach(spec *DatabaseSpec, st *Store, is *IntegrationSpec) error {
	return f.AttachContext(context.Background(), spec, st, is)
}

// AttachContext adds a component database to the federation. The first
// call seeds it (is must be nil); every later call requires an
// integration specification pairing the new member (spec's database)
// with one existing member, in either header orientation. The second
// Attach runs the ordinary pairwise pipeline — its Result is
// byte-identical to Integrate on the same inputs. From the third member
// on, Attach integrates the new pair only and grafts it onto the live
// combined state under the engine's write lock; concurrent readers
// never observe a partial membership.
//
// The context is checked between pipeline stages (compile, conform,
// merge, derive) — each can cost unbounded solver work on large specs —
// and once more before the graft: cancellation aborts with ctx.Err()
// and leaves the membership unchanged. Once the graft begins it runs to
// completion.
func (f *Federation) AttachContext(ctx context.Context, spec *DatabaseSpec, st *Store, is *IntegrationSpec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name := spec.Schema.Name
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("attach %s: %w", name, err)
	}
	if st == nil {
		return fmt.Errorf("attach %s: nil store", name)
	}
	if st.Name() != name {
		return fmt.Errorf("attach %s: store is %s", name, st.Name())
	}
	for _, m := range f.members {
		if m.Name == name {
			return fmt.Errorf("attach %s: member already attached", name)
		}
	}

	// Seed member.
	if len(f.members) == 0 {
		if is != nil {
			return fmt.Errorf("attach %s: the seed member takes no integration spec", name)
		}
		f.addMember(&FederationMember{Name: name, Spec: spec, Store: st})
		return nil
	}

	if is == nil {
		return fmt.Errorf("attach %s: an integration spec pairing it with an existing member is required", name)
	}
	pair := is.Pair()
	base, ok := pair.Other(name)
	if !ok {
		return fmt.Errorf("attach %s: integration spec relates %s, not the new member", name, pair)
	}
	baseMember := f.memberByName(base)
	if baseMember == nil {
		return fmt.Errorf("attach %s: base member %s is not part of the federation", name, base)
	}

	// Orient the pair pipeline to the spec header.
	localSpec, remoteSpec, localStore, remoteStore := spec, baseMember.Spec, st, baseMember.Store
	if pair.Local == base {
		localSpec, remoteSpec = baseMember.Spec, spec
		localStore, remoteStore = baseMember.Store, st
	}

	// The pair integrates outside the engine's lock; from the third
	// member on its solver work is scoped to the classes its spec touches.
	res, err := f.integratePair(ctx, localSpec, remoteSpec, is, localStore, remoteStore)
	if err != nil {
		return fmt.Errorf("attach %s: %w", name, err)
	}

	// Second member: the founding pair's Result becomes the combined
	// state verbatim (byte-identical to Integrate).
	if len(f.members) == 1 {
		f.state = core.NewFedState(res, f.members[0].Name, f.opts, f.memo)
		f.engine = view.New(res)
		// The registry pointer is stable for the federation's lifetime
		// (Attach/Detach mutate it in place), so one bind enables the
		// engine's unified Ship across all later membership changes.
		f.engine.BindStores(f.stores)
		f.addMember(&FederationMember{Name: name, Spec: spec, Store: st, ISpec: is, Base: base})
		return nil
	}

	// Third member on: graft the pair onto the live combined state under
	// the engine's write lock, publishing one snapshot for the change.
	err = f.engine.Rebind(func() (changed, removed []string, err error) {
		changed, err = f.state.AttachPair(res, name, base)
		return changed, nil, err
	})
	if err != nil {
		return fmt.Errorf("attach %s: %w", name, err)
	}
	f.addMember(&FederationMember{Name: name, Spec: spec, Store: st, ISpec: is, Base: base})
	return nil
}

// Detach is DetachContext with context.Background() — a documented
// wrapper kept for in-process callers with no deadline to propagate.
func (f *Federation) Detach(name string) error {
	return f.DetachContext(context.Background(), name)
}

// DetachContext removes a member from the federation: its objects and
// constituents leave the integrated view (the component store itself is
// untouched — the database is autonomous), its classes are deregistered
// once empty, every global constraint whose provenance empties is
// retracted, and affected merged objects are reclassified against the
// remaining rules. Untouched classes keep their snapshot indexes and
// cached plans. The member must not be the base of another attached
// member, and the federation keeps serving an integrated pair — a
// two-member federation cannot shrink further.
//
// The context is checked before the retraction begins; once it begins
// it runs to completion (a half-detached member would leave the view
// inconsistent).
func (f *Federation) DetachContext(ctx context.Context, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("detach %s: %w", name, err)
	}
	m := f.memberByName(name)
	if m == nil {
		return fmt.Errorf("detach %s: not a member", name)
	}
	if len(f.members) <= 2 {
		return fmt.Errorf("detach %s: a federation keeps serving an integrated pair (%d members attached)", name, len(f.members))
	}
	err := f.engine.Rebind(func() (changed, removed []string, err error) {
		return f.state.DetachMember(name)
	})
	if err != nil {
		return fmt.Errorf("detach %s: %w", name, err)
	}
	f.stores.Remove(name)
	for i, mm := range f.members {
		if mm.Name == name {
			f.members = append(f.members[:i], f.members[i+1:]...)
			break
		}
	}
	return nil
}

// integratePair runs the pair pipeline — compile → conform → merge →
// derive, the sequence of core.IntegrateOptions — checking ctx between
// stages and once after the last. The derivation shares the federation
// memo unless a combined state exists whose attribute typing disagrees
// with the pair's (logic.Memo's contract).
func (f *Federation) integratePair(ctx context.Context, localSpec, remoteSpec *DatabaseSpec, is *IntegrationSpec, local, remote *Store) (*core.Result, error) {
	spec, err := core.Compile(localSpec, remoteSpec, is)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	spec.Seed = f.seed
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	conf, err := core.ConformOptions(spec, local, remote, f.opts)
	if err != nil {
		return nil, fmt.Errorf("conform: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	gv, err := core.Merge(conf)
	if err != nil {
		return nil, fmt.Errorf("merge: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts := f.opts
	if f.state != nil {
		if ck := f.state.Res.Derivation.Checker; ck == nil || !core.TypesCompatible(ck.Types, conf.Types) {
			opts.Memo = nil
		}
	}
	before := f.memo.Stats()
	res := &core.Result{Spec: spec, Conformed: conf, View: gv, Derivation: core.DeriveOptions(gv, opts)}
	f.noteAttachCost(res.Derivation.CacheStats(), before, opts.Memo != nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// noteAttachCost records one pair derivation's reasoning work. When the
// pair shared the federation memo its stats are cumulative, so the
// pre-derivation snapshot is subtracted; a pair that could not share
// (attribute-typing mismatch) reports its private table directly.
func (f *Federation) noteAttachCost(after, before ReasonerCacheStats, shared bool) {
	if shared {
		after.Hits -= before.Hits
		after.Misses -= before.Misses
		after.Entries -= before.Entries
		after.Collisions -= before.Collisions
	}
	f.lastAttach = after
	f.totalReason.Hits += after.Hits
	f.totalReason.Misses += after.Misses
	f.totalReason.Entries += after.Entries
	f.totalReason.Collisions += after.Collisions
}

// LastAttachReasoning reports the reasoning work (entailment/
// satisfiability computations and memo hits) the most recent Attach's
// pair derivation performed — the incremental cost of the membership
// change. Detach performs none: retraction is provenance bookkeeping.
func (f *Federation) LastAttachReasoning() ReasonerCacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastAttach
}

// TotalReasoning reports the cumulative reasoning work of every Attach
// this federation has performed — the quantity a full re-integration
// from scratch would have to repeat.
func (f *Federation) TotalReasoning() ReasonerCacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.totalReason
}

func (f *Federation) addMember(m *FederationMember) {
	f.members = append(f.members, m)
	// Registry add cannot collide: member names are checked above.
	_ = f.stores.Add(m.Store)
}

func (f *Federation) memberByName(name string) *FederationMember {
	for _, m := range f.members {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Members lists the attached members' database names in attach order.
func (f *Federation) Members() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.members))
	for i, m := range f.members {
		out[i] = m.Name
	}
	return out
}

// Member returns an attached member's record.
func (f *Federation) Member(name string) (*FederationMember, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.memberByName(name)
	return m, m != nil
}

// Stores returns the federation's member-store registry (live: Attach
// and Detach update it) — the one the engine's Ship routes through.
func (f *Federation) Stores() *StoreRegistry { return f.stores }

// Engine returns the query engine serving the federation's integrated
// view, nil until two members are attached. The engine survives
// membership changes — handles stay valid across Attach and Detach.
func (f *Federation) Engine() *QueryEngine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.engine
}

// Result returns the combined integration result, nil until two members
// are attached. With exactly two members it is the pairwise pipeline's
// Result verbatim; from the third member on it is the same object,
// evolved in place by membership changes.
func (f *Federation) Result() *Result {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.state == nil {
		return nil
	}
	return f.state.Res
}

// Report renders an account of the federation: the pairwise report for
// a two-member federation that never grew (byte-identical to
// Integrate's), the federated report — members, classes, lattice,
// constraints with pair provenance — otherwise.
func (f *Federation) Report() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.state == nil {
		if len(f.members) == 1 {
			return fmt.Sprintf("=== Federation: %s (seed only, nothing integrated) ===\n", f.members[0].Name)
		}
		return "=== Federation: empty ===\n"
	}
	var out string
	f.engine.ReadLocked(func() {
		if f.state.Res.Conformed.Fed == nil {
			out = f.state.Res.Report()
		} else {
			out = f.state.Report()
		}
	})
	return out
}

package view

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"interopdb/internal/core"
	"interopdb/internal/expr"
	"interopdb/internal/fixture"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/tm"
)

// engineWithStores is scaledEngine plus the component stores, for tests
// exercising the routed Ship path.
func engineWithStores(t testing.TB, scale int) (*Engine, *store.Store, *store.Store) {
	t.Helper()
	local, remote := fixture.Figure1Stores(fixture.Options{Scale: scale})
	res, err := core.Integrate(tm.Figure1Library(), tm.Figure1Bookseller(), tm.Figure1IntegrationRepaired(), local, remote, 1)
	if err != nil {
		t.Fatalf("Integrate: %v", err)
	}
	return New(res), local, remote
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestRunContextCancelledColdNoCachePoison pins the acceptance property:
// a query whose plan build is aborted by cancellation caches nothing —
// the next caller with a live context plans from scratch and gets the
// correct answer, and from then on the plan cache serves as usual.
func TestRunContextCancelledColdNoCachePoison(t *testing.T) {
	e := scaledEngine(t, 2)
	q := Query{Class: "Item", Where: expr.MustParse("shopprice <= 20")}

	if _, _, err := e.RunContext(cancelledCtx(), q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cold RunContext: err = %v, want context.Canceled", err)
	}

	// A reference engine that never saw the cancelled call.
	ref := scaledEngine(t, 2)
	wantRows, _, err := ref.Run(q)
	if err != nil {
		t.Fatalf("reference Run: %v", err)
	}

	rows, stats, err := e.Run(q)
	if err != nil {
		t.Fatalf("Run after cancelled build: %v", err)
	}
	if stats.PlanCached {
		t.Fatalf("plan served from cache after a cancelled build: the aborted plan was cached")
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("rows after cancelled build diverge from a fresh engine:\ngot  %v\nwant %v", rows, wantRows)
	}
	if _, stats, err = e.Run(q); err != nil || !stats.PlanCached {
		t.Fatalf("third run: err=%v PlanCached=%v, want cache hit", err, stats.PlanCached)
	}
}

// TestRunContextCancelledWarmScan pins cancellation mid-scan on a cached
// plan: the call terminates with ctx.Err(), and the cached plan and
// snapshot keep serving later callers.
func TestRunContextCancelledWarmScan(t *testing.T) {
	e := scaledEngine(t, 2)
	// A predicate with a non-empty answer: the constraint phase must not
	// prune it, or there is no scan loop left to cancel.
	q := Query{Class: "Item", Where: expr.MustParse("shopprice < 75")}
	wantRows, _, err := e.Run(q) // builds and caches the plan
	if err != nil {
		t.Fatalf("warm-up Run: %v", err)
	}
	if len(wantRows) == 0 {
		t.Fatal("warm-up query answered empty; pick a predicate with matches")
	}

	if _, _, err := e.RunContext(cancelledCtx(), q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled warm RunContext: err = %v, want context.Canceled", err)
	}

	rows, stats, err := e.Run(q)
	if err != nil || !stats.PlanCached {
		t.Fatalf("Run after warm cancellation: err=%v PlanCached=%v, want cache hit", err, stats.PlanCached)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("rows after warm cancellation diverge:\ngot  %v\nwant %v", rows, wantRows)
	}
}

// TestRunContextCancelledPredicateFree pins cancellation on the
// plan-free projection path.
func TestRunContextCancelledPredicateFree(t *testing.T) {
	e := scaledEngine(t, 2)
	if _, _, err := e.RunContext(cancelledCtx(), Query{Class: "Item"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled predicate-free RunContext: err = %v, want context.Canceled", err)
	}
	if rows, _, err := e.Run(Query{Class: "Item"}); err != nil || len(rows) == 0 {
		t.Fatalf("Run after cancellation: rows=%d err=%v", len(rows), err)
	}
}

// TestValidateCancelled pins that a cancelled Validate aborts with
// ctx.Err() and, being read-only, leaves nothing behind.
func TestValidateCancelled(t *testing.T) {
	e := scaledEngine(t, 2)
	ops := []Mutation{{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
		"title": object.Str("ctx probe"), "isbn": object.Str("ctx-1"),
		"shopprice": object.Real(10), "libprice": object.Real(5),
	}}}
	if _, _, err := e.Validate(cancelledCtx(), ops); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Validate: err = %v, want context.Canceled", err)
	}
	if rejs, _, err := e.Validate(context.Background(), ops); err != nil || len(rejs) != 0 {
		t.Fatalf("Validate after cancellation: rejs=%v err=%v", rejs, err)
	}
}

// TestShipCancelledLeavesViewUnchanged pins the Ship contract: a batch
// cancelled before any member commit rolls back everywhere — the
// component stores and the integrated view are untouched.
func TestShipCancelledLeavesViewUnchanged(t *testing.T) {
	e, _, remote := scaledEngineStores(t, 2)

	extent := func() int {
		rows, _, err := e.Run(Query{Class: "Item"})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return len(rows)
	}
	before := extent()
	mk := func(i int) []Mutation {
		return []Mutation{{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
			"title":     object.Str(fmt.Sprintf("ship ctx %d", i)),
			"isbn":      object.Str(fmt.Sprintf("ship-ctx-%d", i)),
			"publisher": object.Ref{DB: remote.Name(), OID: 2},
			"shopprice": object.Real(50), "libprice": object.Real(40),
		}}}
	}

	if err := e.Ship(cancelledCtx(), mk(0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Ship: err = %v, want context.Canceled", err)
	}
	if got := extent(); got != before {
		t.Fatalf("cancelled Ship changed the view: extent %d -> %d", before, got)
	}

	if err := e.Ship(context.Background(), mk(1)); err != nil {
		t.Fatalf("Ship after cancellation: %v", err)
	}
	if got := extent(); got != before+1 {
		t.Fatalf("Ship after cancellation: extent %d, want %d", got, before+1)
	}
}

// TestShipWithoutBoundStores pins Ship's precondition: no registry, no
// write — reported by sentinel so the transports can map it.
func TestShipWithoutBoundStores(t *testing.T) {
	e := scaledEngine(t, 0)
	err := e.Ship(context.Background(), []Mutation{{Kind: MutDelete, Class: "Item", ID: 1}})
	if !errors.Is(err, ErrNoStores) {
		t.Fatalf("Ship without BindStores: err = %v, want ErrNoStores", err)
	}
}

// TestEngineWriteSurface pins the one-write-path contract: Validate and
// Ship are the engine's only exported mutation entrypoints, so a
// per-kind or per-store variant cannot come back unnoticed.
func TestEngineWriteSurface(t *testing.T) {
	var got []string
	typ := reflect.TypeOf(&Engine{})
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; strings.HasPrefix(name, "Ship") || strings.HasPrefix(name, "Validate") {
			got = append(got, name)
		}
	}
	if want := []string{"Ship", "Validate"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("exported Ship*/Validate* methods of *Engine = %v, want %v", got, want)
	}
}

// TestSentinelErrors pins the typed-error contract the transport layer
// relies on: unknown targets match the sentinels via errors.Is, and
// rejections match ErrRejected both singly and batched.
func TestSentinelErrors(t *testing.T) {
	e := scaledEngine(t, 0)

	_, _, err := e.Validate(context.Background(), []Mutation{{Kind: MutDelete, Class: "Item", ID: 999999}})
	if !errors.Is(err, ErrUnknownObject) {
		t.Errorf("delete of missing object: err = %v, want ErrUnknownObject", err)
	}

	_, _, err = e.Validate(context.Background(), []Mutation{{Kind: MutInsert, Class: "NoSuchClass"}})
	if !errors.Is(err, ErrUnknownClass) {
		t.Errorf("insert into missing class: err = %v, want ErrUnknownClass", err)
	}

	// An existing object addressed through a class it is not a member of.
	rows, _, err := e.Run(Query{Class: "Item", Select: []string{"title"}})
	if err != nil || len(rows) == 0 {
		t.Fatalf("Run: rows=%d err=%v", len(rows), err)
	}
	_, _, err = e.Validate(context.Background(), []Mutation{{Kind: MutUpdate, Class: "Employee", ID: 1, Attrs: map[string]object.Value{"title": object.Str("x")}}})
	if err == nil {
		t.Error("update through a foreign class succeeded")
	}

	var rej Rejection
	if !errors.Is(rej, ErrRejected) {
		t.Error("Rejection does not match ErrRejected")
	}
	var batch Rejections = []Rejection{{Detail: "a"}, {Detail: "b"}}
	if !errors.Is(batch, ErrRejected) {
		t.Error("Rejections does not match ErrRejected")
	}
	var recovered Rejections
	wrapped := fmt.Errorf("over the wire: %w", batch)
	if !errors.As(wrapped, &recovered) || len(recovered) != 2 {
		t.Errorf("errors.As(Rejections) recovered %d rejections, want 2", len(recovered))
	}
}

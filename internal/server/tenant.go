package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"interopdb"
	"interopdb/internal/view"
)

// ErrUnknownTenant marks requests addressing a tenant the server does
// not host; handlers map it to 404.
var ErrUnknownTenant = errors.New("unknown tenant")

// tenant is one hosted federation: an isolated Federation instance plus
// the batcher coalescing its concurrent wire transactions. Tenants
// share nothing — not stores, not engines, not reasoning memos, not
// data directories — so one tenant's mutations can never leak into
// another's view.
type tenant struct {
	name  string
	fed   *interopdb.Federation
	batch *txBatcher

	// dur is nil on an ephemeral server (Config.DataDir unset). When
	// set, every acknowledged transaction is in the tenant's WAL and
	// recovery was performed at boot (the outcome stays in recovery).
	dur      *interopdb.Durability
	recovery interopdb.RecoveryInfo

	// durMu serializes Checkpoint against Shutdown — Durability forbids
	// racing them — and durClosed makes shutdown idempotent across the
	// delete-tenant handler and server Close.
	durMu     sync.Mutex
	durClosed bool

	// memberVer counts successful attach/detach operations. The binary
	// transport tags prepared-query handles with it and transparently
	// re-prepares when it moves, so a handle parsed under one federation
	// shape never executes stale against another (wire.Backend's
	// MemberVersion contract).
	memberVer atomic.Uint64
}

// checkpoint writes a periodic snapshot; a no-op for ephemeral tenants
// and after durability shutdown.
func (t *tenant) checkpoint() error {
	if t.dur == nil {
		return nil
	}
	t.durMu.Lock()
	defer t.durMu.Unlock()
	if t.durClosed {
		return nil
	}
	return t.dur.Checkpoint(t.fed)
}

// shutdownDurability flushes the WAL, writes the final checkpoint (so
// the next boot replays nothing) and closes the log. Idempotent; the
// batcher must be stopped first so no ship races the final snapshot.
func (t *tenant) shutdownDurability(logf func(format string, args ...any)) {
	if t.dur == nil {
		return
	}
	t.durMu.Lock()
	defer t.durMu.Unlock()
	if t.durClosed {
		return
	}
	t.durClosed = true
	if err := t.dur.Shutdown(t.fed); err != nil && logf != nil {
		logf("tenant %s: durability shutdown: %v", t.name, err)
	}
}

// engine returns the tenant's serving engine, which exists once two
// members are attached.
func (t *tenant) engine() (*view.Engine, error) {
	e := t.fed.Engine()
	if e == nil {
		return nil, fmt.Errorf("tenant %s has fewer than two members attached; queries need an integrated pair", t.name)
	}
	return e, nil
}

// newTenant wraps a federation with its batcher.
func newTenant(name string, fed *interopdb.Federation) *tenant {
	t := &tenant{name: name, fed: fed}
	t.batch = newTxBatcher(func(ops []view.Mutation) error {
		e, err := t.engine()
		if err != nil {
			return err
		}
		// Background, not a client context: a combined batch serves
		// several requests, and one client's disconnect must not abort
		// its peers' shipment.
		return e.Ship(context.Background(), ops)
	})
	return t
}

// fixtureMember is one catalog entry: a database spec, its instance
// store, and (for non-seed members) the integration spec pairing it
// with an existing member.
type fixtureMember struct {
	spec        *interopdb.DatabaseSpec
	store       *interopdb.Store
	integration *interopdb.IntegrationSpec
}

// builtinFixture builds the members of a named built-in fixture. The
// catalog covers the paper's running examples:
//
//	figure1   — CSLibrary + Bookseller (repaired §2.2 integration)
//	personnel — the introduction's two department databases
//
// Each call builds fresh stores, so two tenants from the same fixture
// never share instance data.
func builtinFixture(name string) ([]fixtureMember, error) {
	switch name {
	case "figure1":
		local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
		return []fixtureMember{
			{spec: interopdb.Figure1Library(), store: local},
			{spec: interopdb.Figure1Bookseller(), store: remote, integration: interopdb.Figure1IntegrationRepaired()},
		}, nil
	case "personnel":
		db1, db2 := interopdb.PersonnelStores()
		return []fixtureMember{
			{spec: interopdb.Personnel1(), store: db1},
			{spec: interopdb.Personnel2(), store: db2, integration: interopdb.PersonnelIntegration()},
		}, nil
	default:
		return nil, fmt.Errorf("unknown fixture %q (have: figure1, personnel)", name)
	}
}

// builtinAttachable resolves a named attachable member for the /attach
// endpoint — the N-way federation scenario over the wire.
func builtinAttachable(name string) (fixtureMember, error) {
	switch name {
	case "univarchive":
		return fixtureMember{
			spec:        interopdb.Figure1UnivArchive(),
			store:       interopdb.ArchiveStore(interopdb.FixtureOptions{Scale: 1}),
			integration: interopdb.Figure1ArchiveIntegration(),
		}, nil
	default:
		return fixtureMember{}, fmt.Errorf("unknown attachable member %q (have: univarchive)", name)
	}
}

// parseUploadedMember compiles one uploaded TM member: the database
// spec text, an empty store over its schema, and the optional
// integration spec text.
func parseUploadedMember(specSrc, integrationSrc string) (fixtureMember, error) {
	spec, err := interopdb.ParseDatabase(specSrc)
	if err != nil {
		return fixtureMember{}, fmt.Errorf("database spec: %w", err)
	}
	m := fixtureMember{spec: spec, store: interopdb.NewStore(spec)}
	if integrationSrc != "" {
		is, err := interopdb.ParseIntegration(integrationSrc)
		if err != nil {
			return fixtureMember{}, fmt.Errorf("integration spec: %w", err)
		}
		m.integration = is
	}
	return m, nil
}

// buildFederation attaches the members in order onto a fresh
// federation — the one boot path of ephemeral and durable tenants.
func buildFederation(ctx context.Context, members []fixtureMember, opts interopdb.PipelineOptions) (*interopdb.Federation, error) {
	fed := interopdb.NewFederation(1, opts)
	for i, m := range members {
		if i > 0 && m.integration == nil {
			return nil, fmt.Errorf("member %d (%s): an integration spec pairing it with an existing member is required", i, m.spec.Schema.Name)
		}
		if err := fed.AttachContext(ctx, m.spec, m.store, m.integration); err != nil {
			return nil, err
		}
	}
	return fed, nil
}

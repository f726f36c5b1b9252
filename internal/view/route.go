package view

import (
	"context"
	"fmt"

	"interopdb/internal/store"
)

// Routed shipping: in an N-member federation a batch's operations land
// in different component databases — an insert goes to its global
// class's origin member, an update to every member holding a
// constituent of the target, a delete to all of them. Ship resolves each
// operation's member backends through the federation's store.Registry
// and stages ONE deferred-validation transaction per member, so each
// local manager validates its final state once while the caller stays
// member-agnostic.

// BindStores binds the federation's member-store registry to the
// engine; Ship routes through it. The federation that owns the engine
// calls it at construction and after every membership change; passing
// nil unbinds.
func (e *Engine) BindStores(reg *store.Registry) {
	e.stores.Store(reg)
}

// Ship is the one shipping entrypoint — the paper's §5.2 "send the
// subtransactions" step, run after Validate accepted the batch. It
// stages a mixed insert/update/delete batch across the member backends
// bound with BindStores (ErrNoStores when none are): every operation is
// routed to the member database(s) that own it, one deferred-validation
// transaction per member; a singleton mutation is a one-element batch.
// Attribute values must be in the conformed (global) domain Validate
// evaluates — they reach the member managers as given. Transactions
// commit in first-use order (deterministic); because autonomous
// databases cannot commit atomically across members, the commit phase
// is fault-tolerant end to end:
//
//   - A member quarantined by its circuit breaker — or one with batches
//     still pending in the commit journal — fast-fails the whole batch
//     with ErrMemberUnavailable BEFORE anything is staged against its
//     peers' managers commits, so no partial commit is possible.
//   - Transient commit failures (store.ErrUnavailable) are retried with
//     capped exponential backoff under a per-member time budget
//     (Engine.Retry); a commit whose effects landed before the failure
//     was reported (fail-after-commit) is recognised by effect
//     verification and counted as committed.
//   - A member that stays down AFTER peers committed strands the batch:
//     the journal entry recorded before the first commit stays pending
//     and the caller gets a *PartialCommitError naming the committed
//     members and the journal position — Engine.Reconcile finishes the
//     batch when the member heals. If nothing committed yet, the clean
//     abort is reported as *MemberUnavailableError instead (retryable).
//   - A member whose local manager REJECTS the batch after peers
//     committed triggers inline compensation: the committed prefix is
//     undone via inverse effects and the original rejection is returned
//     with the federation restored; only if compensation itself stalls
//     does the caller see a *PartialCommitError.
//
// With a write-ahead log bound (SetDurability), every record the batch
// appended is made durable by one fsync before any outcome is reported
// and before the view changes; a failed fsync is reported instead of
// the outcome. On full success the batch is applied to the integrated
// view in order and ONE snapshot is published before the write lock is
// released, so concurrent readers observe the whole batch or none of
// it, and the caller's next read, on any goroutine, observes all of it.
//
// The context is checked between staged operations and once more before
// the first member commit: cancellation there rolls every member
// transaction back and leaves the view untouched. Once the first member
// has committed, the remaining commits and the view application run to
// completion regardless of cancellation — aborting midway would strand
// committed subtransactions outside the view.
func (e *Engine) Ship(ctx context.Context, ops []Mutation) error {
	reg := e.stores.Load()
	if reg == nil {
		return ErrNoStores
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	txs := map[string]store.Txn{}
	backends := map[string]store.Backend{}
	effects := map[string][]store.Effect{}
	var order []string
	txFor := func(member string) (store.Txn, error) {
		if tx, ok := txs[member]; ok {
			return tx, nil
		}
		st, ok := reg.Get(member)
		if !ok {
			return nil, fmt.Errorf("no store registered for member %s", member)
		}
		// Quarantine gate: refuse the batch while the member's breaker
		// is open or earlier batches await it in the journal — before
		// any peer commits, so the refusal is cleanly retryable.
		if pending := e.journal.pendingFor(member); pending > 0 {
			e.faults.quarantineRejects.Add(1)
			return nil, &MemberUnavailableError{
				Member:     member,
				RetryAfter: e.health.retryHint(member),
				Err:        fmt.Errorf("%d batch(es) pending reconciliation", pending),
			}
		}
		if ok, retryAfter := e.health.allow(member); !ok {
			e.faults.quarantineRejects.Add(1)
			return nil, &MemberUnavailableError{Member: member, RetryAfter: retryAfter, Err: store.ErrUnavailable}
		}
		tx := st.Begin()
		txs[member] = tx
		backends[member] = st
		order = append(order, member)
		return tx, nil
	}
	abort := func(err error) error {
		for _, n := range order {
			txs[n].Rollback()
		}
		return err
	}

	// record notes a change just staged on a member's transaction.
	record := func(member string, ef store.Effect) {
		effects[member] = append(effects[member], store.Capture(backends[member], ef))
	}

	applies := make([]shippedOp, 0, len(ops))
	for i, op := range ops {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
		switch op.Kind {
		case MutInsert:
			org, ok := e.res.View.Origin[op.Class]
			if !ok {
				return abort(fmt.Errorf("op %d: no origin class for global class %s: %w", i, op.Class, ErrUnknownClass))
			}
			member := e.res.Conformed.MemberName(org.Side)
			tx, err := txFor(member)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			oid, err := tx.Insert(org.Class, op.Attrs)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			record(member, store.Effect{Kind: store.OpInsert, Class: org.Class, OID: oid, Attrs: op.Attrs})
			applies = append(applies, shippedOp{op: op, oid: oid, db: member})
		case MutUpdate, MutDelete:
			g, err := e.targetOf(op, nil)
			if err != nil {
				return abort(fmt.Errorf("op %d: %w", i, err))
			}
			staged := false
			// Parts are side-ordered (attach order), so an update reaches
			// its members, and so commits and logs them, in the same
			// order on every run.
			for _, m := range g.Parts {
				if m.Virtual {
					continue
				}
				tx, err := txFor(m.Src.DB)
				if err != nil {
					return abort(fmt.Errorf("op %d: %w", i, err))
				}
				ef := store.Effect{Kind: store.OpUpdate, OID: m.Src.OID, Attrs: op.Attrs}
				if op.Kind == MutDelete {
					ef = store.Effect{Kind: store.OpDelete, OID: m.Src.OID}
				}
				if err := store.Stage(tx, ef); err != nil {
					return abort(fmt.Errorf("op %d: %w", i, err))
				}
				record(m.Src.DB, ef)
				staged = true
			}
			if !staged && op.Kind == MutUpdate {
				return abort(fmt.Errorf("op %d: object g%d has no component constituents to update", i, op.ID))
			}
			applies = append(applies, shippedOp{op: op, g: g})
		default:
			return abort(fmt.Errorf("op %d: unknown mutation kind %d", i, int(op.Kind)))
		}
	}

	if err := ctx.Err(); err != nil {
		return abort(err)
	}

	// Intent is journaled before the first member commit: if the commit
	// phase strands, the entry holds everything Reconcile needs — and,
	// with durability on, the same intent is in the WAL, so a crash that
	// destroys the in-memory journal can still settle the batch.
	ent, err := e.journal.begin(store.IntentRecord{Members: order, Effects: effects}, backends, txs, applies)
	if err != nil {
		return abort(err)
	}
	err = e.commitBatch(ctx, ent)
	// One fsync covers every record the batch appended. It lands before
	// any outcome is reported and before the view changes, so neither
	// an acknowledgement nor a reported rejection can outrun the log.
	if serr := e.journal.sync(); serr != nil {
		return serr
	}
	if err != nil {
		return err
	}
	return e.applyShipped(applies)
}

// commitBatch is Ship's commit phase: it commits the entry's member
// transactions in order and returns nil once every member committed
// and the entry is resolved. Any other outcome comes back as the error
// Ship reports: a plain rejection, a compensated rejection, a
// *MemberUnavailableError or a *PartialCommitError.
func (e *Engine) commitBatch(ctx context.Context, ent *journalEntry) error {
	order, txs := ent.Intent.Members, ent.Txns
	var committed, pendingMembers []string
	for ci, member := range order {
		err := e.commitLogged(ctx, ent.Wal, ent.Backends[member], txs[member], ent.Intent.Effects[member])
		if err == nil {
			e.journal.markCommitted(ent, member)
			e.health.success(member)
			committed = append(committed, member)
			continue
		}
		if !store.IsTransient(err) {
			// Permanent local rejection: the batch can never complete.
			for _, later := range order[ci+1:] {
				txs[later].Rollback()
			}
			if len(committed) == 0 {
				// Nothing committed anywhere — a plain rejection.
				e.journal.resolve(ent, store.ResolveAborted)
				return fmt.Errorf("op batch rejected by %s: %w", member, err)
			}
			// Undo the committed prefix. If every compensation lands,
			// the federation is restored and the caller sees the
			// member's rejection, not a partial commit.
			e.journal.compensate(ent, err)
			if e.compensateEntry(ctx, ent) {
				e.journal.remove(ent)
				e.faults.compensatedInline.Add(1)
				return fmt.Errorf("batch rejected by %s; %d committed member transaction(s) compensated, federation state restored: %w",
					member, len(committed), err)
			}
			e.faults.partialCommits.Add(1)
			return &PartialCommitError{
				Seq: ent.Seq, Committed: committed,
				Pending: e.journal.committedPendingCompensation(ent),
				Mode:    modeCompensate.String(), Err: err,
			}
		}
		// Transient outage: the member is down. Quarantine it.
		e.health.outage(member, err)
		e.faults.outages.Add(1)
		e.journal.setErr(ent, err)
		if len(committed) == 0 {
			// No peer has committed: abort cleanly, breaker open —
			// the batch is wholesale-retryable after the cool-down.
			for _, m := range order {
				txs[m].Rollback()
			}
			e.journal.resolve(ent, store.ResolveAborted)
			return &MemberUnavailableError{Member: member, RetryAfter: e.health.retryHint(member), Err: err}
		}
		// Peers committed: keep committing the remaining healthy
		// members (shrinking the pending set) and strand only the
		// failed one(s) for Reconcile.
		pendingMembers = append(pendingMembers, member)
	}
	if len(pendingMembers) > 0 {
		e.faults.partialCommits.Add(1)
		return &PartialCommitError{
			Seq: ent.Seq, Committed: committed, Pending: pendingMembers,
			Mode: modeComplete.String(), Err: fmt.Errorf("%s", e.journal.lastErrOf(ent)),
		}
	}
	e.journal.resolve(ent, store.ResolveCommitted)
	return nil
}

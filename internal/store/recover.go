package store

import (
	"fmt"
	"slices"
)

// Recovery (DESIGN.md §13): rebuild member-store state from
// `checkpoint + WAL tail`. The functions here are pure with respect to
// the log — recovery never writes to the WAL, so a crash *during*
// recovery changes nothing and the next attempt replays the same
// inputs to the same result. Durability of the recovery itself comes
// from the fresh checkpoint the orchestrating layer writes once the
// federation is rebuilt.

// RecoveredState is the parsed persistent state of a node: the last
// checkpoint (nil on first boot), the WAL tail past it, and the
// tail-damage report if the crash tore the log.
type RecoveredState struct {
	Checkpoint *Checkpoint
	// Records is the WAL tail: every surviving record with LSN beyond
	// the checkpoint, in log order.
	Records []WALRecord
	Damage  *TailDamage
	// LastLSN is the highest LSN seen anywhere (checkpoint or tail).
	LastLSN uint64
}

// BuildRecovery assembles a RecoveredState from a checkpoint (nil when
// none exists) and the records OpenWAL returned. Records the
// checkpoint already covers are dropped here, once, so Replay never
// sees them.
func BuildRecovery(ckpt *Checkpoint, recs []WALRecord, damage *TailDamage) *RecoveredState {
	rs := &RecoveredState{Checkpoint: ckpt, Damage: damage}
	var base uint64
	if ckpt != nil {
		base = ckpt.LSN
		rs.LastLSN = ckpt.LSN
	}
	for _, r := range recs {
		if r.LSN > rs.LastLSN {
			rs.LastLSN = r.LSN
		}
		if r.LSN <= base {
			continue
		}
		rs.Records = append(rs.Records, r)
	}
	return rs
}

// HasState reports whether there is anything to recover.
func (rs *RecoveredState) HasState() bool {
	return rs.Checkpoint != nil || len(rs.Records) > 0
}

// Derived returns a derived-artifact section from the checkpoint
// ("derivation", "memo", "plans"), or false.
func (rs *RecoveredState) Derived(section string) ([]byte, bool) {
	if rs.Checkpoint == nil {
		return nil, false
	}
	b, ok := rs.Checkpoint.Derived[section]
	return b, ok
}

// ReplayStats reports what Replay did.
type ReplayStats struct {
	// RestoredMembers / RestoredObjects count checkpoint restoration.
	RestoredMembers int
	RestoredObjects int
	// ReplayedCommits counts WAL commit records applied.
	ReplayedCommits int
	// SkippedRecords counts records dropped by the idempotency guard
	// (non-increasing LSN — e.g. a tail replayed twice).
	SkippedRecords int
	// CompletedIntents counts unresolved routed batches finished by
	// applying their recorded effects to the members that missed them;
	// AbortedIntents counts unresolved batches with no committed member
	// (recognised as clean aborts and dropped).
	CompletedIntents int
	AbortedIntents   int
	// CompensatedIntents counts batches resolved "compensated" whose
	// undo the crash interrupted, finished here via inverse effects.
	CompensatedIntents int
	// UnresolvedOps counts effect applications (forward or inverse)
	// performed to settle intents.
	UnresolvedOps int
}

// Replay rebuilds the member stores: checkpoint restore, then WAL tail
// in LSN order, then completion of unresolved cross-member intents.
// The stores map must name every member the log mentions, each built
// (and, on first boot, seeded) exactly as the original boot built it.
// Replay applies state without re-running constraint checks: every
// commit in the log was validated by its member's manager before it was
// recorded, and completing an interrupted batch applies the intent's
// effects to members whose manager never judged them (applyEffects).
func (rs *RecoveredState) Replay(stores map[string]*Store) (ReplayStats, error) {
	var stats ReplayStats
	if rs.Checkpoint != nil {
		for _, mc := range rs.Checkpoint.Members {
			s, ok := stores[mc.Name]
			if !ok {
				return stats, fmt.Errorf("recover: checkpoint names member %s but no store was provided", mc.Name)
			}
			if err := mc.RestoreInto(s); err != nil {
				return stats, fmt.Errorf("recover: %w", err)
			}
			stats.RestoredMembers++
			stats.RestoredObjects += s.Count()
		}
	}

	// The WAL tail. Commits apply in log order; intents and resolves
	// are collected to settle cross-member atomicity afterwards.
	type intentState struct {
		lsn       uint64
		rec       IntentRecord
		outcome   string // "" while unresolved
		committed map[string]bool
	}
	var intents []*intentState
	byLSN := map[uint64]*intentState{}
	var lastLSN uint64
	if rs.Checkpoint != nil {
		lastLSN = rs.Checkpoint.LSN
	}
	for _, r := range rs.Records {
		if r.LSN <= lastLSN {
			stats.SkippedRecords++
			continue
		}
		lastLSN = r.LSN
		switch r.Kind {
		case WALCommit:
			cr, err := DecodeCommitRecord(r.Body)
			if err != nil {
				return stats, fmt.Errorf("recover: LSN %d: %w", r.LSN, err)
			}
			s, ok := stores[cr.Member]
			if !ok {
				return stats, fmt.Errorf("recover: LSN %d commits to unknown member %s", r.LSN, cr.Member)
			}
			if err := applyEffects(s, cr.Ops); err != nil {
				return stats, fmt.Errorf("recover: LSN %d on %s: %w", r.LSN, cr.Member, err)
			}
			stats.ReplayedCommits++
			if cr.Batch != 0 {
				if st, ok := byLSN[cr.Batch]; ok {
					st.committed[cr.Member] = true
				}
			}
		case WALIntent:
			ir, err := DecodeIntentRecord(r.Body)
			if err != nil {
				return stats, fmt.Errorf("recover: LSN %d: %w", r.LSN, err)
			}
			st := &intentState{lsn: r.LSN, rec: ir, committed: map[string]bool{}}
			intents = append(intents, st)
			byLSN[r.LSN] = st
		case WALResolve:
			rr, err := DecodeResolveRecord(r.Body)
			if err != nil {
				return stats, fmt.Errorf("recover: LSN %d: %w", r.LSN, err)
			}
			if st, ok := byLSN[rr.Batch]; ok {
				st.outcome = rr.Outcome
			}
		default:
			return stats, fmt.Errorf("recover: LSN %d: unknown record kind %d", r.LSN, r.Kind)
		}
	}

	// Settle the intents. An unresolved one is a routed batch the crash
	// caught between its intent record and its terminal outcome, and the
	// per-member commit records tell how far it got. Nothing committed →
	// the batch was never acknowledged and aborts cleanly. A committed
	// prefix → the batch was partially durable; complete it, because the
	// committed members' state is already visible and completion (unlike
	// compensation) needs no cooperation from state the crash destroyed.
	// A "compensated" resolve sealed the batch's fate as "undo the
	// committed prefix" before the compensating transactions ran: any
	// member whose forward effects are still present missed its undo, and
	// the intent's prior values carry everything the inverse needs. Any
	// other resolved intent is settled already.
	for _, st := range intents {
		undo := st.outcome == ResolveCompensated
		if !undo && st.outcome != "" {
			continue
		}
		if !undo && !slices.ContainsFunc(st.rec.Members, func(m string) bool { return st.committed[m] }) {
			stats.AbortedIntents++
			continue
		}
		settled := false
		for _, m := range st.rec.Members {
			if !undo && st.committed[m] {
				continue
			}
			s, ok := stores[m]
			if !ok {
				return stats, fmt.Errorf("recover: intent LSN %d names unknown member %s", st.lsn, m)
			}
			effs, verb := st.rec.Effects[m], "completing"
			if Applied(s, effs) != undo {
				continue // already on the batch's decided side
			}
			if undo {
				effs, verb = Inverse(effs), "compensating"
			}
			if err := applyEffects(s, effs); err != nil {
				return stats, fmt.Errorf("recover: %s intent LSN %d on %s: %w", verb, st.lsn, m, err)
			}
			stats.UnresolvedOps += len(effs)
			settled = true
		}
		if !undo {
			stats.CompletedIntents++
		} else if settled {
			stats.CompensatedIntents++
		}
	}
	return stats, nil
}

// applyEffects applies effects straight to a store with constraint
// enforcement off: the log records state the member's manager already
// validated, and a completion replay applies a batch recovery has
// decided to finish — neither goes back through the manager.
func applyEffects(s *Store, effs []Effect) error {
	enforce := s.Enforce
	s.Enforce = false
	defer func() { s.Enforce = enforce }()
	for i, e := range effs {
		var err error
		switch e.Kind {
		case OpInsert:
			if err = s.validateAttrs(e.Class, e.Attrs); err == nil {
				_, err = s.insertReserved(e.OID, e.Class, e.Attrs)
			}
			if err == nil && e.OID >= s.nextOID {
				s.nextOID = e.OID + 1
			}
		case OpUpdate:
			err = s.Update(e.OID, e.Attrs)
		case OpDelete:
			err = s.Delete(e.OID)
		default:
			err = fmt.Errorf("unknown kind %d", int(e.Kind))
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

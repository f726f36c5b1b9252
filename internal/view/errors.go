package view

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Typed failure kinds for the serving API. Callers — in particular the
// HTTP handlers of internal/server — map failures to responses by
// sentinel (errors.Is) or by concrete type (errors.As) instead of
// string-matching error text:
//
//	ErrRejected      — a mutation was refused by the derived global
//	                   constraints; errors.As recovers the []Rejection
//	                   with its repair proposals via Rejections.
//	ErrUnknownClass  — the named global class does not exist on the
//	                   integrated view (or the object is not a member).
//	ErrUnknownObject — no object with the given view ID exists.
var (
	// ErrRejected marks constraint rejections. Both a single Rejection
	// and a Rejections batch match it via errors.Is.
	ErrRejected = errors.New("mutation rejected by global constraints")
	// ErrUnknownClass marks references to global classes the integrated
	// view does not serve (including class-membership mismatches on
	// update/delete targets).
	ErrUnknownClass = errors.New("unknown global class")
	// ErrUnknownObject marks update/delete targets that do not exist in
	// the integrated view.
	ErrUnknownObject = errors.New("unknown view object")
	// ErrPartialCommit marks a cross-member batch that failed after at
	// least one autonomous member database had already committed. The
	// batch MUST NOT be retried wholesale (re-shipping would double-apply
	// the committed part) — but since PR 7 the failure is a *retriable
	// state*, not a dead end: the committed prefix is recorded in the
	// engine's commit journal and Engine.Reconcile completes (or
	// compensates) it when the failed member heals. errors.As recovers
	// the *PartialCommitError with the journal position.
	ErrPartialCommit = errors.New("batch partially committed across member databases")
	// ErrMemberUnavailable marks writes refused because a member database
	// is unreachable or quarantined by its circuit breaker. No member
	// committed anything: the batch is safe to retry wholesale after the
	// hinted backoff. errors.As recovers the *MemberUnavailableError.
	ErrMemberUnavailable = errors.New("member database unavailable")
	// ErrNoStores marks a Ship call on an engine no member-store registry
	// was bound to (BindStores): the engine can validate but has nowhere
	// to send subtransactions. Nothing was staged.
	ErrNoStores = errors.New("no member stores bound to the engine")
)

// MemberUnavailableError reports a write refused — before any peer
// committed — because one member is down or quarantined. RetryAfter is
// the breaker's remaining cool-down, the natural Retry-After hint.
type MemberUnavailableError struct {
	Member     string
	RetryAfter time.Duration
	Err        error
}

// Error implements error.
func (e *MemberUnavailableError) Error() string {
	msg := fmt.Sprintf("member %s unavailable, batch not started (retry after %s)", e.Member, e.RetryAfter.Round(time.Millisecond))
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Is makes errors.Is(err, ErrMemberUnavailable) true.
func (e *MemberUnavailableError) Is(target error) bool { return target == ErrMemberUnavailable }

// Unwrap exposes the underlying member failure.
func (e *MemberUnavailableError) Unwrap() error { return e.Err }

// PartialCommitError reports a batch stranded between members: the
// Committed members applied it, the Pending ones have not (complete
// mode) or must have it rolled back (compensate mode). The entry stays
// in the commit journal under Seq until Engine.Reconcile resolves it.
type PartialCommitError struct {
	// Seq is the journal sequence number of the pending entry.
	Seq uint64
	// Committed names the members whose local transactions committed.
	Committed []string
	// Pending names the members reconciliation still has to visit.
	Pending []string
	// Mode is "complete" (commit the rest when the member heals) or
	// "compensate" (undo the committed prefix).
	Mode string
	// Err is the member failure that stranded the batch.
	Err error
}

// Error implements error.
func (e *PartialCommitError) Error() string {
	return fmt.Sprintf("batch committed on [%s] but pending on [%s] — journal entry %d awaits %s by Reconcile (%s): %v",
		strings.Join(e.Committed, ","), strings.Join(e.Pending, ","), e.Seq, e.Mode, ErrPartialCommit.Error(), e.Err)
}

// Is makes errors.Is(err, ErrPartialCommit) true.
func (e *PartialCommitError) Is(target error) bool { return target == ErrPartialCommit }

// Unwrap exposes the member failure that stranded the batch.
func (e *PartialCommitError) Unwrap() error { return e.Err }

// Is makes errors.Is(rej, ErrRejected) true for any Rejection.
func (r Rejection) Is(target error) bool { return target == ErrRejected }

// Rejections is a batch of constraint rejections as one error value, so
// validation outcomes travel through error-returning call chains (and
// network boundaries) without losing their structure: errors.Is matches
// ErrRejected, errors.As recovers the full slice with every repair
// proposal intact.
type Rejections []Rejection

// Error implements error.
func (rs Rejections) Error() string {
	if len(rs) == 0 {
		return "mutation rejected"
	}
	if len(rs) == 1 {
		return rs[0].Error()
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = r.Error()
	}
	return fmt.Sprintf("%d rejections: %s", len(rs), strings.Join(parts, "; "))
}

// Is makes errors.Is(rs, ErrRejected) true.
func (rs Rejections) Is(target error) bool { return target == ErrRejected }

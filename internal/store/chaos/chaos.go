// Package chaos wraps a store.Backend with deterministic fault
// injection, so every member-failure mode the federation must survive
// is reproducible in a test: transient commit failures (fail once,
// succeed on retry), permanent local failures, commits that apply
// before reporting failure (the ambiguous outcome), added commit
// latency, and whole-member outages (transient or permanent until
// Heal). Faults are scheduled either explicitly by commit-attempt
// number or sampled from a seeded PRNG, and commit attempts are counted
// under a mutex in call order — the same call sequence always sees the
// same faults, which is what lets the chaos differential tests compare
// a faulted run byte-for-byte against a fault-free one.
//
// Injection covers the transactional write path and liveness probes.
// Point reads (Get/Extent/Count) always pass through: federation reads
// are served from published snapshots, and the reconciler's effect
// verification needs an honest view of what actually committed.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/store"
)

// Fault is one injected failure mode.
type Fault int

const (
	// FaultNone passes the operation through.
	FaultNone Fault = iota
	// FaultTransient fails the commit attempt with store.ErrUnavailable
	// without running it; a retry passes through (unless scheduled
	// again).
	FaultTransient
	// FaultPermanent fails the commit attempt with a non-retryable
	// error and rolls the inner transaction back — the local manager's
	// "no" verdict.
	FaultPermanent
	// FaultAfterCommit runs the inner commit, then reports
	// store.ErrUnavailable anyway: the ambiguous outcome a crashed
	// connection produces. Effect verification is the only way to learn
	// the truth.
	FaultAfterCommit
)

// Options configures a wrapper. The zero value injects nothing.
type Options struct {
	// Seed seeds the PRNG behind TransientRate.
	Seed int64
	// TransientRate injects FaultTransient on this fraction of commit
	// attempts (0 disables sampling).
	TransientRate float64
	// Schedule pins faults to specific commit attempts (1-based,
	// counted over the wrapper's lifetime in call order). A scheduled
	// attempt bypasses the sampler.
	Schedule map[int]Fault
	// Latency is added to every commit attempt.
	Latency time.Duration
}

// Stats counts what the wrapper has done.
type Stats struct {
	// CommitAttempts counts Commit calls observed.
	CommitAttempts int
	// Injected counts faulted commit attempts, split by kind below.
	Injected    int
	Transient   int
	Permanent   int
	AfterCommit int
	// OutageRejects counts operations refused during an outage.
	OutageRejects int
}

// Backend wraps an inner store.Backend with fault injection. Safe for
// concurrent use; fault decisions are serialised in call order.
type Backend struct {
	inner store.Backend
	opts  Options

	mu     sync.Mutex
	rng    *rand.Rand
	stats  Stats
	outage bool
}

// Wrap builds a fault-injecting wrapper around a member backend.
func Wrap(inner store.Backend, opts Options) *Backend {
	return &Backend{inner: inner, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}
}

// Stats snapshots the injection counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// StartOutage makes every transactional operation and Ping fail with
// store.ErrUnavailable until Heal.
func (b *Backend) StartOutage() {
	b.mu.Lock()
	b.outage = true
	b.mu.Unlock()
}

// Heal ends an outage.
func (b *Backend) Heal() {
	b.mu.Lock()
	b.outage = false
	b.mu.Unlock()
}

func (b *Backend) down() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.outage
}

func (b *Backend) unavailable(op string) error {
	b.mu.Lock()
	b.stats.OutageRejects++
	b.mu.Unlock()
	return fmt.Errorf("chaos: %s outage on %s: %w", op, b.inner.Name(), store.ErrUnavailable)
}

// nextCommitFault consumes one fault decision for a commit attempt.
func (b *Backend) nextCommitFault() (Fault, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stats.CommitAttempts++
	attempt := b.stats.CommitAttempts
	f, scheduled := b.opts.Schedule[attempt]
	if !scheduled {
		f = FaultNone
		if b.opts.TransientRate > 0 && b.rng.Float64() < b.opts.TransientRate {
			f = FaultTransient
		}
	}
	switch f {
	case FaultTransient:
		b.stats.Injected++
		b.stats.Transient++
	case FaultPermanent:
		b.stats.Injected++
		b.stats.Permanent++
	case FaultAfterCommit:
		b.stats.Injected++
		b.stats.AfterCommit++
	}
	return f, attempt
}

// ScheduleNext schedules a fault on each of the next n commit attempts,
// counted from those already observed — the handle a harness uses to
// stage an outage at a known point mid-run without rebuilding the
// wrapper or coordinating on wall clock.
func (b *Backend) ScheduleNext(f Fault, n int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opts.Schedule == nil {
		b.opts.Schedule = make(map[int]Fault, n)
	}
	for i := 1; i <= n; i++ {
		b.opts.Schedule[b.stats.CommitAttempts+i] = f
	}
}

// Name implements store.Backend.
func (b *Backend) Name() string { return b.inner.Name() }

// Count implements store.Backend (reads pass through).
func (b *Backend) Count() int { return b.inner.Count() }

// Get implements store.Backend (reads pass through).
func (b *Backend) Get(oid object.OID) (*store.Obj, bool) { return b.inner.Get(oid) }

// Extent implements store.Backend (reads pass through).
func (b *Backend) Extent(class string) []*store.Obj { return b.inner.Extent(class) }

// Ping implements store.Backend: fails while an outage is in force.
func (b *Backend) Ping() error {
	if b.down() {
		return b.unavailable("ping")
	}
	return b.inner.Ping()
}

// Begin implements store.Backend. The transaction is created eagerly
// even during an outage — its operations fail instead, mirroring a
// connection that dies mid-flight.
func (b *Backend) Begin() store.Txn { return &txn{b: b, inner: b.inner.Begin()} }

type txn struct {
	b     *Backend
	inner store.Txn
}

func (t *txn) Insert(class string, attrs map[string]object.Value) (object.OID, error) {
	if t.b.down() {
		return 0, t.b.unavailable("insert")
	}
	return t.inner.Insert(class, attrs)
}

func (t *txn) InsertAt(oid object.OID, class string, attrs map[string]object.Value) error {
	if t.b.down() {
		return t.b.unavailable("insert")
	}
	return t.inner.InsertAt(oid, class, attrs)
}

func (t *txn) Update(oid object.OID, attrs map[string]object.Value) error {
	if t.b.down() {
		return t.b.unavailable("update")
	}
	return t.inner.Update(oid, attrs)
}

func (t *txn) Delete(oid object.OID) error {
	if t.b.down() {
		return t.b.unavailable("delete")
	}
	return t.inner.Delete(oid)
}

func (t *txn) Rollback() { t.inner.Rollback() }

func (t *txn) Commit() error {
	if t.b.down() {
		return t.b.unavailable("commit")
	}
	if t.b.opts.Latency > 0 {
		time.Sleep(t.b.opts.Latency)
	}
	f, attempt := t.b.nextCommitFault()
	switch f {
	case FaultTransient:
		return fmt.Errorf("chaos: injected transient fault on %s commit attempt %d: %w",
			t.b.inner.Name(), attempt, store.ErrUnavailable)
	case FaultPermanent:
		t.inner.Rollback()
		return fmt.Errorf("chaos: injected permanent failure on %s commit attempt %d", t.b.inner.Name(), attempt)
	case FaultAfterCommit:
		if err := t.inner.Commit(); err != nil {
			return err
		}
		return fmt.Errorf("chaos: commit applied on %s but failure reported (attempt %d): %w",
			t.b.inner.Name(), attempt, store.ErrUnavailable)
	}
	return t.inner.Commit()
}

// Compile-time check.
var _ store.Backend = (*Backend)(nil)

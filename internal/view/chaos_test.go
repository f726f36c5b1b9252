package view

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/store/chaos"
)

// Fault-tolerance tests for the routed shipping path: every member is
// wrapped in a deterministic chaos backend and the engine is driven
// through scheduled transient faults, ambiguous (fail-after-commit)
// outcomes, permanent local rejections and whole-member outages. The
// differential tests pin the recovery guarantee: after Reconcile, the
// integrated view and every member store are byte-identical to a
// fault-free run of the same workload.

type chaosHarness struct {
	e        *Engine
	libStore *store.Store
	bsStore  *store.Store
	lib      *chaos.Backend // wraps the local (library) member
	bs       *chaos.Backend // wraps the remote (bookseller) member
}

func newChaosHarness(t testing.TB, scale int, libOpts, bsOpts chaos.Options) *chaosHarness {
	t.Helper()
	e, local, remote := engineWithStores(t, scale)
	h := &chaosHarness{
		e: e, libStore: local, bsStore: remote,
		lib: chaos.Wrap(local, libOpts),
		bs:  chaos.Wrap(remote, bsOpts),
	}
	reg := store.NewRegistry()
	if err := reg.Add(h.lib); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(h.bs); err != nil {
		t.Fatal(err)
	}
	e.BindStores(reg)
	// Retries must stay capped-exponential in shape but take no wall
	// clock: the chaos schedules, not elapsed time, decide outcomes.
	e.Retry = RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}}
	return h
}

// itemInsert builds a fresh bookseller-routed Item insert.
func (h *chaosHarness) itemInsert(isbn string) Mutation {
	return Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]object.Value{
		"title":     object.Str("Chaos " + isbn),
		"isbn":      object.Str(isbn),
		"publisher": object.Ref{DB: h.bsStore.Name(), OID: 2},
		"shopprice": object.Real(50), "libprice": object.Real(40),
	}}
}

// vldbUpdate builds a title update of the merged vldb96 object — it fans
// to a constituent in BOTH member stores, the partial-commit shape.
func (h *chaosHarness) vldbUpdate(t testing.TB, rev int) Mutation {
	t.Helper()
	g := findByISBN(t, h.e, "vldb96")
	return Mutation{Kind: MutUpdate, Class: "Item", ID: g.ID, Attrs: map[string]object.Value{
		"title": object.Str(fmt.Sprintf("VLDB 96 Proceedings rev %d", rev)),
	}}
}

func (h *chaosHarness) itemCount(t testing.TB) int {
	t.Helper()
	rows, _, err := h.e.Run(Query{Class: "Item"})
	if err != nil {
		t.Fatalf("Run(Item): %v", err)
	}
	return len(rows)
}

// storeFingerprint renders a member store's full object set in a
// canonical order: class, OID and every attribute of every object.
func storeFingerprint(s *store.Store) string {
	var lines []string
	for _, class := range s.Schema().ClassNames() {
		for _, o := range s.DirectExtent(class) {
			var b strings.Builder
			fmt.Fprintf(&b, "%s/#%d", class, o.OID())
			attrs := o.Attrs()
			keys := make([]string, 0, len(attrs))
			for k := range attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, attrs[k].String())
			}
			lines = append(lines, b.String())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// viewFingerprint renders the integrated view: every global object with
// its ID, classification, attributes and member constituents.
func viewFingerprint(e *Engine) string {
	var lines []string
	for _, g := range e.res.View.Objects {
		var b strings.Builder
		fmt.Fprintf(&b, "g%d", g.ID)
		classes := make([]string, 0, len(g.Classes))
		for c, in := range g.Classes {
			if in {
				classes = append(classes, c)
			}
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, " [%s]", strings.Join(classes, ","))
		attrs := g.Attrs()
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, attrs[k].String())
		}
		var parts []string
		for _, ms := range g.Parts {
			for _, m := range ms {
				parts = append(parts, fmt.Sprintf("%s/#%d/v=%v", m.Src.DB, m.Src.OID, m.Virtual))
			}
		}
		sort.Strings(parts)
		fmt.Fprintf(&b, " {%s}", strings.Join(parts, ";"))
		lines = append(lines, b.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func (h *chaosHarness) fingerprints() (string, string, string) {
	return viewFingerprint(h.e), storeFingerprint(h.libStore), storeFingerprint(h.bsStore)
}

func diffFingerprints(t *testing.T, what string, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s diverged at line %d:\n  faulted:    %s\n  fault-free: %s", what, i, g, w)
			return
		}
	}
	t.Errorf("%s diverged (length %d vs %d)", what, len(gl), len(wl))
}

// runDifferentialWorkload drives the same mixed workload through a
// harness: single-member inserts, cross-member insert+update batches,
// and one single-member delete. Every Ship must succeed.
func runDifferentialWorkload(t *testing.T, h *chaosHarness, rounds int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < rounds; i++ {
		if err := h.e.Ship(ctx, []Mutation{h.itemInsert(fmt.Sprintf("chaos-diff-%d", i))}); err != nil {
			t.Fatalf("round %d solo insert: %v", i, err)
		}
		ops := []Mutation{
			h.itemInsert(fmt.Sprintf("chaos-diff-x-%d", i)),
			h.vldbUpdate(t, i),
		}
		if err := h.e.Ship(ctx, ops); err != nil {
			t.Fatalf("round %d cross-member batch: %v", i, err)
		}
	}
	victim := findByISBN(t, h.e, "chaos-diff-1")
	if err := h.e.Ship(ctx, []Mutation{{Kind: MutDelete, Class: "Item", ID: victim.ID}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// chaosSchedule builds a seeded random fault schedule of transient and
// fail-after-commit faults, never on consecutive attempts — every fault
// is resolvable within one commitWithRetry call, so the faulted run
// surfaces no errors at all.
func chaosSchedule(seed int64, attempts int, rate float64) map[int]chaos.Fault {
	rng := rand.New(rand.NewSource(seed))
	sched := map[int]chaos.Fault{}
	for a := 1; a <= attempts; {
		if rng.Float64() < rate {
			if rng.Intn(2) == 0 {
				sched[a] = chaos.FaultTransient
			} else {
				sched[a] = chaos.FaultAfterCommit
			}
			a += 2 // leave the retry attempt clean
		} else {
			a++
		}
	}
	return sched
}

// TestChaosDifferentialSeededFaults is the chaos differential: the same
// workload driven through seeded per-member fault schedules (transient
// and fail-after-commit faults on both members) must finish with the
// view and every member store byte-identical to a fault-free run, with
// no error ever surfaced to the shipping client.
func TestChaosDifferentialSeededFaults(t *testing.T) {
	clean := newChaosHarness(t, 2, chaos.Options{}, chaos.Options{})
	runDifferentialWorkload(t, clean, 10)
	wantView, wantLib, wantBS := clean.fingerprints()

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newChaosHarness(t, 2,
				chaos.Options{Schedule: chaosSchedule(seed, 40, 0.4)},
				chaos.Options{Schedule: chaosSchedule(seed+100, 80, 0.4)})
			runDifferentialWorkload(t, h, 10)

			if h.lib.Stats().Injected == 0 && h.bs.Stats().Injected == 0 {
				t.Fatal("schedules injected nothing — the differential is vacuous")
			}
			gotView, gotLib, gotBS := h.fingerprints()
			diffFingerprints(t, "view", gotView, wantView)
			diffFingerprints(t, "library store", gotLib, wantLib)
			diffFingerprints(t, "bookseller store", gotBS, wantBS)

			fs := h.e.FaultStats()
			if fs.TransientFaults == 0 {
				t.Error("no transient faults recorded despite injection")
			}
			if fs.PartialCommits != 0 {
				t.Errorf("in-call-resolvable faults stranded %d batches", fs.PartialCommits)
			}
			if h.e.Health().JournalDepth != 0 {
				t.Error("journal not empty after a fully-recovered workload")
			}
		})
	}
}

// TestChaosDifferentialOutageReconcile extends the differential across a
// mid-workload member outage: a cross-member batch strands (partial
// commit), the member heals, Reconcile completes the batch, and the
// workload continues — the final state must still be byte-identical to
// the fault-free run.
func TestChaosDifferentialOutageReconcile(t *testing.T) {
	clean := newChaosHarness(t, 2, chaos.Options{}, chaos.Options{})
	runDifferentialWorkload(t, clean, 8)
	wantView, wantLib, wantBS := clean.fingerprints()

	// The library takes one commit per round (the vldb96 update fan-out);
	// rounds 0-3 are attempts 1-4, so faulting attempts 5-8 exhausts the
	// retry budget exactly on round 4's commit — after the bookseller
	// half of the batch has committed.
	h := newChaosHarness(t, 2, chaos.Options{
		Schedule: map[int]chaos.Fault{
			5: chaos.FaultTransient, 6: chaos.FaultTransient,
			7: chaos.FaultTransient, 8: chaos.FaultTransient,
		},
	}, chaos.Options{})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := h.e.Ship(ctx, []Mutation{h.itemInsert(fmt.Sprintf("chaos-diff-%d", i))}); err != nil {
			t.Fatalf("round %d solo insert: %v", i, err)
		}
		ops := []Mutation{
			h.itemInsert(fmt.Sprintf("chaos-diff-x-%d", i)),
			h.vldbUpdate(t, i),
		}
		if i == 4 {
			// The library's commit keeps failing: the bookseller half of
			// the batch commits, the library half strands in the journal.
			err := h.e.Ship(ctx, ops)
			if !errors.Is(err, ErrPartialCommit) {
				t.Fatalf("outage mid-batch: err = %v, want ErrPartialCommit", err)
			}
			// The schedule is exhausted — the member has healed.
			rs, rerr := h.e.Reconcile(ctx)
			if rerr != nil {
				t.Fatalf("Reconcile: %v", rerr)
			}
			if rs.Completed != 1 || rs.Pending != 0 {
				t.Fatalf("Reconcile stats %+v, want 1 completed / 0 pending", rs)
			}
			continue
		}
		if err := h.e.Ship(ctx, ops); err != nil {
			t.Fatalf("round %d cross-member batch: %v", i, err)
		}
	}
	victim := findByISBN(t, h.e, "chaos-diff-1")
	if err := h.e.Ship(ctx, []Mutation{{Kind: MutDelete, Class: "Item", ID: victim.ID}}); err != nil {
		t.Fatalf("delete: %v", err)
	}

	gotView, gotLib, gotBS := h.fingerprints()
	diffFingerprints(t, "view", gotView, wantView)
	diffFingerprints(t, "library store", gotLib, wantLib)
	diffFingerprints(t, "bookseller store", gotBS, wantBS)
	if fs := h.e.FaultStats(); fs.PartialCommits != 1 || fs.ReconcileCompleted != 1 {
		t.Errorf("fault stats %+v, want exactly one stranded batch completed by Reconcile", fs)
	}
}

// TestBreakerQuarantineAndDegradedReads pins the degraded-serving
// contract: a member whose commits keep failing opens its breaker, the
// next write fast-fails with ErrMemberUnavailable and a Retry-After
// hint, reads keep serving from the last-good snapshot with the member
// named in Stats.Degraded, and an elapsed cool-down half-opens the
// breaker so the next write closes it again.
func TestBreakerQuarantineAndDegradedReads(t *testing.T) {
	h := newChaosHarness(t, 2, chaos.Options{}, chaos.Options{
		Schedule: map[int]chaos.Fault{
			1: chaos.FaultTransient, 2: chaos.FaultTransient,
			3: chaos.FaultTransient, 4: chaos.FaultTransient,
		},
	})
	ctx := context.Background()
	before := h.itemCount(t)

	// Exhausted retries with nothing committed: a clean, retryable abort.
	err := h.e.Ship(ctx, []Mutation{h.itemInsert("quarantine-0")})
	var mue *MemberUnavailableError
	if !errors.As(err, &mue) || !errors.Is(err, ErrMemberUnavailable) {
		t.Fatalf("exhausted retries: err = %v, want *MemberUnavailableError", err)
	}
	if mue.Member != h.bsStore.Name() {
		t.Errorf("unavailable member = %q, want %q", mue.Member, h.bsStore.Name())
	}
	attemptsAtOpen := h.bs.Stats().CommitAttempts

	// The breaker is open: the next write fast-fails without reaching
	// the member at all.
	err = h.e.Ship(ctx, []Mutation{h.itemInsert("quarantine-1")})
	if !errors.As(err, &mue) {
		t.Fatalf("quarantined write: err = %v, want *MemberUnavailableError", err)
	}
	if mue.RetryAfter <= 0 {
		t.Errorf("quarantined write carries no Retry-After hint: %+v", mue)
	}
	if got := h.bs.Stats().CommitAttempts; got != attemptsAtOpen {
		t.Errorf("fast-fail still reached the member: %d commit attempts, want %d", got, attemptsAtOpen)
	}

	// Reads keep serving, annotated with the stale member.
	rows, stats, err := h.e.RunContext(ctx, Query{Class: "Item"})
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if len(rows) != before {
		t.Errorf("degraded read served %d rows, want %d", len(rows), before)
	}
	if len(stats.Degraded) != 1 || stats.Degraded[0] != h.bsStore.Name() {
		t.Errorf("Stats.Degraded = %v, want [%s]", stats.Degraded, h.bsStore.Name())
	}
	rep := h.e.Health()
	if rep.Healthy {
		t.Error("health report claims healthy with an open breaker")
	}

	// Cool-down elapses (injected clock): the breaker half-opens, the
	// probe write succeeds and the member is healthy again.
	h.e.health.now = func() time.Time { return time.Now().Add(time.Minute) }
	if err := h.e.Ship(ctx, []Mutation{h.itemInsert("quarantine-2")}); err != nil {
		t.Fatalf("probe write after cool-down: %v", err)
	}
	if got := h.itemCount(t); got != before+1 {
		t.Errorf("extent %d after recovery, want %d", got, before+1)
	}
	if d := h.e.health.degradedMembers(); len(d) != 0 {
		t.Errorf("still degraded after recovery: %v", d)
	}
	if rep := h.e.Health(); !rep.Healthy {
		t.Errorf("health report not healthy after recovery: %+v", rep)
	}
	if h.e.FaultStats().QuarantineRejects == 0 {
		t.Error("quarantine rejects not counted")
	}
}

// TestPartialCommitJournalAndReconcile pins the stranded-batch life
// cycle: a cross-member batch whose second member fails transiently
// after the first committed returns *PartialCommitError naming the
// committed and pending members, blocks further writes to the stranded
// member, leaves the view unchanged, and is completed by Reconcile once
// the member heals — at which point the batch appears in the view.
func TestPartialCommitJournalAndReconcile(t *testing.T) {
	h := newChaosHarness(t, 2, chaos.Options{
		Schedule: map[int]chaos.Fault{
			1: chaos.FaultTransient, 2: chaos.FaultTransient,
			3: chaos.FaultTransient, 4: chaos.FaultTransient,
		},
	}, chaos.Options{})
	ctx := context.Background()
	before := h.itemCount(t)

	// Leading with the bookseller-routed insert pins the commit order:
	// bookseller first, then the faulted library.
	ops := []Mutation{h.itemInsert("stranded-1"), h.vldbUpdate(t, 1)}
	err := h.e.Ship(ctx, ops)
	var pce *PartialCommitError
	if !errors.As(err, &pce) || !errors.Is(err, ErrPartialCommit) {
		t.Fatalf("stranded batch: err = %v, want *PartialCommitError", err)
	}
	if len(pce.Committed) != 1 || pce.Committed[0] != h.bsStore.Name() {
		t.Errorf("Committed = %v, want [%s]", pce.Committed, h.bsStore.Name())
	}
	if len(pce.Pending) != 1 || pce.Pending[0] != h.libStore.Name() {
		t.Errorf("Pending = %v, want [%s]", pce.Pending, h.libStore.Name())
	}
	if pce.Mode != "complete" {
		t.Errorf("Mode = %q, want complete", pce.Mode)
	}

	// The batch is not in the view, and the stranded member refuses new
	// writes (ordering preservation) while its peer still accepts them.
	if got := h.itemCount(t); got != before {
		t.Errorf("stranded batch visible in view: extent %d, want %d", got, before)
	}
	err = h.e.Ship(ctx, []Mutation{h.itemInsert("blocked-1"), h.vldbUpdate(t, 2)})
	if !errors.Is(err, ErrMemberUnavailable) {
		t.Fatalf("write to stranded member: err = %v, want ErrMemberUnavailable", err)
	}
	if err := h.e.Ship(ctx, []Mutation{h.itemInsert("peer-ok-1")}); err != nil {
		t.Fatalf("bookseller-only write during library quarantine: %v", err)
	}

	rep := h.e.Health()
	if rep.JournalDepth != 1 || len(rep.Entries) != 1 {
		t.Fatalf("health journal depth %d (%d entries), want 1", rep.JournalDepth, len(rep.Entries))
	}
	if ent := rep.Entries[0]; ent.Seq != pce.Seq || ent.Mode != "complete" ||
		len(ent.Pending) != 1 || ent.Pending[0] != h.libStore.Name() {
		t.Errorf("journal entry info %+v does not match the error (seq %d)", ent, pce.Seq)
	}

	// The member heals (schedule exhausted at attempt 4): Reconcile
	// completes the batch and applies it to the view.
	rs, err := h.e.Reconcile(ctx)
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if rs.Completed != 1 || rs.Pending != 0 {
		t.Fatalf("Reconcile stats %+v, want 1 completed / 0 pending", rs)
	}
	if got := h.itemCount(t); got != before+2 {
		t.Errorf("extent %d after reconcile, want %d (stranded + peer-ok inserts)", got, before+2)
	}
	g := findByISBN(t, h.e, "stranded-1")
	if g == nil {
		t.Fatal("reconciled insert not in view")
	}
	if rep := h.e.Health(); !rep.Healthy {
		t.Errorf("health report not healthy after reconcile: %+v", rep)
	}
	if fs := h.e.FaultStats(); fs.PartialCommits != 1 || fs.ReconcileCompleted != 1 {
		t.Errorf("fault stats %+v, want one partial commit completed by Reconcile", fs)
	}
}

// TestLateRejectionCompensatesInline pins the compensation path: a
// member whose local manager PERMANENTLY rejects the batch after a peer
// committed triggers inline compensation — the committed prefix is
// undone, the caller sees the rejection (not a partial commit), and the
// federation is byte-identical to its pre-batch state.
func TestLateRejectionCompensatesInline(t *testing.T) {
	h := newChaosHarness(t, 2, chaos.Options{
		Schedule: map[int]chaos.Fault{1: chaos.FaultPermanent},
	}, chaos.Options{})
	ctx := context.Background()
	wantView, wantLib, wantBS := h.fingerprints()

	ops := []Mutation{h.itemInsert("doomed-1"), h.vldbUpdate(t, 1)}
	err := h.e.Ship(ctx, ops)
	if err == nil {
		t.Fatal("permanently rejected batch succeeded")
	}
	if errors.Is(err, ErrPartialCommit) || errors.Is(err, ErrMemberUnavailable) {
		t.Fatalf("fully compensated rejection must be a plain error, got %v", err)
	}

	gotView, gotLib, gotBS := h.fingerprints()
	diffFingerprints(t, "view", gotView, wantView)
	diffFingerprints(t, "library store", gotLib, wantLib)
	diffFingerprints(t, "bookseller store", gotBS, wantBS)
	if fs := h.e.FaultStats(); fs.CompensatedInline != 1 || fs.PartialCommits != 0 {
		t.Errorf("fault stats %+v, want one inline compensation and no partial commits", fs)
	}
	if d := h.e.Health().JournalDepth; d != 0 {
		t.Errorf("journal depth %d after inline compensation, want 0", d)
	}

	// The federation still takes writes afterwards.
	if err := h.e.Ship(ctx, []Mutation{h.itemInsert("after-compensation")}); err != nil {
		t.Fatalf("write after compensation: %v", err)
	}
}

// TestFailAfterCommitResolvedByVerification pins the ambiguous-outcome
// path: a commit that applies before its failure is reported is
// recognised by effect verification and the Ship call succeeds without
// double-applying anything.
func TestFailAfterCommitResolvedByVerification(t *testing.T) {
	h := newChaosHarness(t, 2, chaos.Options{}, chaos.Options{
		Schedule: map[int]chaos.Fault{1: chaos.FaultAfterCommit},
	})
	before := h.itemCount(t)
	if err := h.e.Ship(context.Background(), []Mutation{h.itemInsert("ambiguous-1")}); err != nil {
		t.Fatalf("fail-after-commit batch: %v", err)
	}
	if got := h.itemCount(t); got != before+1 {
		t.Errorf("extent %d, want %d (exactly one apply)", got, before+1)
	}
	if n := len(h.bsStore.FindByAttr("Item", "isbn", object.Str("ambiguous-1"))); n != 1 {
		t.Errorf("%d copies in the member store, want 1", n)
	}
	fs := h.e.FaultStats()
	if fs.AmbiguousResolved != 1 {
		t.Errorf("AmbiguousResolved = %d, want 1", fs.AmbiguousResolved)
	}
	if fs.Outages != 0 || fs.PartialCommits != 0 {
		t.Errorf("ambiguous outcome escalated: %+v", fs)
	}
}

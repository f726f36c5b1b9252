package interopdb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"interopdb/internal/store"
	"interopdb/internal/store/chaos"
)

// bootFigure1Durable performs the documented boot protocol over the
// three-member Figure 1 federation: open the data directory, build and
// seed the member stores exactly as a cold boot would, replay
// `checkpoint + WAL tail` into them, attach, and Finish.
func bootFigure1Durable(t *testing.T, dir string, opts DurabilityOptions) (*Federation, *Durability, RecoveryInfo) {
	t.Helper()
	dur, err := OpenDurability(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := Figure1Stores(FixtureOptions{})
	arch := ArchiveStore(FixtureOptions{})
	if err := dur.RestoreStores(local, remote, arch); err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(1, PipelineOptions{Memo: dur.Memo()})
	if err := fed.Attach(Figure1Library(), local, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(Figure1Bookseller(), remote, Figure1IntegrationRepaired()); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(Figure1UnivArchive(), arch, Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}
	info, err := dur.Finish(context.Background(), fed)
	if err != nil {
		t.Fatal(err)
	}
	return fed, dur, info
}

// durabilityQueries is the read workload whose plan shapes the
// checkpoint persists and a warm start re-plans.
func durabilityQueries() []Query {
	return []Query{
		{Class: "Proceedings", Where: MustParseExpr("rating >= 7")},
		{Class: "Item", Where: MustParseExpr("shopprice <= 20")},
		{Class: "Record", Where: MustParseExpr("pages >= 100")},
	}
}

// shipRecord ships one archive insert through the routed path.
func shipRecord(t *testing.T, fed *Federation, i int) error {
	t.Helper()
	return fed.Engine().Ship(context.Background(), []Mutation{{
		Kind: MutInsert, Class: "Record", Attrs: map[string]Value{
			"title": Str(fmt.Sprintf("Archived Volume %d", i)), "isbn": Str(fmt.Sprintf("wal%d", i)),
			"keeper": Str("Annex"), "price": Real(float64(10 + i)), "pages": Int(200 + i),
		},
	}})
}

// shipWorkload runs the standard durable write workload: four archive
// inserts plus one cross-member merged-object update (its effects fan
// to all three member stores, exercising the intent/resolve records).
func shipWorkload(t *testing.T, fed *Federation) {
	t.Helper()
	for i := 0; i < 4; i++ {
		if err := shipRecord(t, fed, i); err != nil {
			t.Fatalf("ship insert %d: %v", i, err)
		}
	}
	e := fed.Engine()
	vldb := findVLDB(t, fed)
	err := e.Ship(context.Background(), []Mutation{{
		Kind: MutUpdate, Class: "Publication", ID: vldb,
		Attrs: map[string]Value{"title": Str("Proceedings of the 22nd VLDB Conference (durable printing)")},
	}})
	if err != nil {
		t.Fatalf("ship cross-member update: %v", err)
	}
}

// findVLDB locates the three-way merged vldb96 object's view ID.
func findVLDB(t *testing.T, fed *Federation) int {
	t.Helper()
	for _, g := range fed.Result().View.Objects {
		if isbn, ok := g.Get("isbn"); ok && isbn.String() == "'vldb96'" && g.Classes["Record"] && g.Classes["Item"] {
			return g.ID
		}
	}
	t.Fatal("vldb96 merged object not found")
	return 0
}

// memberSnapshots serializes every member store's full state (extents,
// insertion order, OID counter) — the byte-identity oracle.
func memberSnapshots(t *testing.T, fed *Federation, dropOIDCounter bool) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range fed.Members() {
		m, ok := fed.Member(name)
		if !ok {
			t.Fatalf("member %s missing", name)
		}
		mc, err := store.SnapshotStore(m.Store)
		if err != nil {
			t.Fatalf("snapshot %s: %v", name, err)
		}
		if dropOIDCounter {
			// Aborted transactions burn OIDs in the live process that a
			// replay (which only sees durable commits) never allocates.
			mc.NextOID = 0
		}
		b, err := json.Marshal(mc)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

func runAll(t *testing.T, fed *Federation, qs []Query) [][]Row {
	t.Helper()
	var out [][]Row
	for _, q := range qs {
		rows, _, err := fed.Engine().Run(q)
		if err != nil {
			t.Fatalf("Run(%s): %v", q.Class, err)
		}
		out = append(out, rows)
	}
	return out
}

// canonRows renders each query's rows as a sorted multiset. Row VALUES
// must survive a restart byte-for-byte; serving ORDER is extent-
// construction order, which legitimately differs between a view grown
// incrementally by Ship and one re-integrated from the same recovered
// member state (base-class extents precede subclass extents there).
func canonRows(rss [][]Row) [][]string {
	out := make([][]string, len(rss))
	for i, rs := range rss {
		ss := make([]string, len(rs))
		for j, r := range rs {
			ss[j] = fmt.Sprintf("%v", r)
		}
		sort.Strings(ss)
		out[i] = ss
	}
	return out
}

// TestDurabilityColdStart pins the first-boot path: an empty data
// directory is a cold start, Finish writes the initial checkpoint, and
// a second boot with no intervening writes restores from it with an
// empty WAL tail.
func TestDurabilityColdStart(t *testing.T) {
	dir := t.TempDir()
	fed, dur, info := bootFigure1Durable(t, dir, DurabilityOptions{})
	if !info.ColdStart {
		t.Fatal("first boot not reported as cold start")
	}
	if info.Replay.RestoredMembers != 0 || info.Replay.ReplayedCommits != 0 {
		t.Fatalf("cold start replayed state: %+v", info.Replay)
	}
	if err := dur.Shutdown(fed); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	_, dur2, info2 := bootFigure1Durable(t, dir, DurabilityOptions{})
	defer dur2.Close()
	if info2.ColdStart {
		t.Fatal("second boot reported cold start")
	}
	if info2.Replay.RestoredMembers != 3 {
		t.Fatalf("restored %d members, want 3", info2.Replay.RestoredMembers)
	}
	if info2.Replay.ReplayedCommits != 0 {
		t.Fatalf("clean shutdown left %d commits to replay", info2.Replay.ReplayedCommits)
	}
	if !info2.DerivationVerified {
		t.Fatal("re-derived constraint set was not verified against the checkpoint")
	}
}

// TestWarmStartEquivalence is the headline recovery guarantee: after a
// workload and a graceful drain, a restarted node replays nothing,
// verifies its re-derived constraints, imports the memo, re-plans the
// persisted shapes — and its first client query is a plan-cache hit
// that issues zero solver queries, returning rows byte-identical to the
// pre-restart engine's.
func TestWarmStartEquivalence(t *testing.T) {
	dir := t.TempDir()
	qs := durabilityQueries()

	fed1, dur1, _ := bootFigure1Durable(t, dir, DurabilityOptions{})
	runAll(t, fed1, qs) // populate the plan cache
	shipWorkload(t, fed1)
	want := runAll(t, fed1, qs)
	wantSnaps := memberSnapshots(t, fed1, false)
	if err := dur1.Shutdown(fed1); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	fed2, dur2, info := bootFigure1Durable(t, dir, DurabilityOptions{})
	defer dur2.Close()
	if info.Replay.ReplayedCommits != 0 {
		t.Fatalf("graceful drain left %d commits to replay", info.Replay.ReplayedCommits)
	}
	if info.Replay.RestoredMembers != 3 {
		t.Fatalf("restored %d members, want 3", info.Replay.RestoredMembers)
	}
	if !info.DerivationVerified {
		t.Fatal("derivation not verified")
	}
	if info.MemoEntries == 0 {
		t.Fatal("no memo entries imported")
	}
	if info.PlansWarmed < len(qs) {
		t.Fatalf("warmed %d plan shapes, want >= %d", info.PlansWarmed, len(qs))
	}

	// The recovered member stores are byte-identical to the pre-restart
	// ones.
	if got := memberSnapshots(t, fed2, false); !reflect.DeepEqual(got, wantSnaps) {
		for name := range wantSnaps {
			if got[name] != wantSnaps[name] {
				t.Errorf("member %s state diverged after warm start:\n pre: %s\npost: %s", name, wantSnaps[name], got[name])
			}
		}
		t.FailNow()
	}

	// First post-restart queries: plan hits, zero fresh solver work.
	e := fed2.Engine()
	before := e.CacheStats()
	got := runAll(t, fed2, qs)
	after := e.CacheStats()
	if hits := after.PlanHits - before.PlanHits; hits != int64(len(qs)) {
		t.Fatalf("first post-restart queries: %d plan hits, want %d", hits, len(qs))
	}
	if misses := after.PlanMisses - before.PlanMisses; misses != 0 {
		t.Fatalf("first post-restart queries: %d plan misses, want 0", misses)
	}
	if solver := after.SolverQueries - before.SolverQueries; solver != 0 {
		t.Fatalf("first post-restart queries issued %d solver queries, want 0", solver)
	}
	if !reflect.DeepEqual(canonRows(got), canonRows(want)) {
		t.Fatal("post-restart query rows diverge from pre-restart rows")
	}
}

// TestCrashRecoveryReplaysTail kills the node without a drain (the WAL
// tail holds every acknowledged batch past the boot checkpoint) and
// asserts the restarted node replays to byte-identical member state.
func TestCrashRecoveryReplaysTail(t *testing.T) {
	dir := t.TempDir()
	fed1, _, _ := bootFigure1Durable(t, dir, DurabilityOptions{})
	shipWorkload(t, fed1)
	want := memberSnapshots(t, fed1, false)
	wantRows := runAll(t, fed1, durabilityQueries())
	// Crash: no Shutdown, no Close — the handle is abandoned with every
	// acknowledged append already fsynced.

	fed2, dur2, info := bootFigure1Durable(t, dir, DurabilityOptions{})
	defer dur2.Close()
	if info.Replay.ReplayedCommits == 0 {
		t.Fatal("crash recovery replayed no commits")
	}
	if info.TailDamage != nil {
		t.Fatalf("unexpected tail damage: %+v", info.TailDamage)
	}
	if got := memberSnapshots(t, fed2, false); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered member state diverges from crashed node's")
	}
	if got := runAll(t, fed2, durabilityQueries()); !reflect.DeepEqual(canonRows(got), canonRows(wantRows)) {
		t.Fatal("recovered query rows diverge from crashed node's")
	}
	// The recovered node keeps serving durable writes.
	if err := shipRecord(t, fed2, 99); err != nil {
		t.Fatalf("post-recovery ship: %v", err)
	}
}

// TestCrashRecoveryDiskFaults drives the WAL through the chaos disk
// wrapper: an injected write fault seals the log mid-workload (the
// failed batch is never acknowledged), and the restarted node recovers
// exactly the acknowledged prefix.
func TestCrashRecoveryDiskFaults(t *testing.T) {
	for _, mode := range []struct {
		name  string
		fault chaos.DiskFault
	}{
		{"write-error", chaos.DiskWriteError},
		{"short-write", chaos.DiskShortWrite},
		{"sync-error", chaos.DiskSyncError},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			fed1, dur1, _ := bootFigure1Durable(t, dir, DurabilityOptions{})
			shipWorkload(t, fed1)
			ackedState := memberSnapshots(t, fed1, false)

			// Re-arm the SAME directory with a fault scheduled a few
			// appends out, then write until the log seals.
			if err := dur1.Close(); err != nil {
				t.Fatal(err)
			}
			wrap, _ := chaos.WrapDisk(chaos.DiskOptions{Seed: 1, Schedule: map[int]chaos.DiskFault{2: mode.fault}})
			fed2, dur2, _ := bootFigure1Durable(t, dir, DurabilityOptions{WrapWAL: wrap})
			var failedAt = -1
			for i := 10; i < 20; i++ {
				if err := shipRecord(t, fed2, i); err != nil {
					failedAt = i
					break
				}
				ackedState = memberSnapshots(t, fed2, false)
			}
			if failedAt < 0 {
				t.Fatal("scheduled disk fault never surfaced as a ship failure")
			}
			if dur2.WAL().Sealed() == nil {
				t.Fatal("log not sealed after disk fault")
			}
			// Sealed log: later writes fail fast, no ack can lie, and a
			// batch whose intent cannot be logged leaves no journal entry.
			if err := shipRecord(t, fed2, 50); err == nil {
				t.Fatal("ship succeeded on a sealed log")
			}
			if d := fed2.Engine().Health().JournalDepth; d != 0 {
				t.Fatalf("journal depth %d after writes refused by a sealed log, want 0", d)
			}

			fed3, dur3, info := bootFigure1Durable(t, dir, DurabilityOptions{})
			defer dur3.Close()
			// Acknowledged batches survive; the failed batch does not.
			got := memberSnapshots(t, fed3, true)
			wantAcked := map[string]string{}
			for name, s := range ackedState {
				var mc store.MemberCheckpoint
				if err := json.Unmarshal([]byte(s), &mc); err != nil {
					t.Fatal(err)
				}
				mc.NextOID = 0
				b, _ := json.Marshal(mc)
				wantAcked[name] = string(b)
			}
			if !reflect.DeepEqual(got, wantAcked) {
				t.Fatalf("recovered state diverges from acknowledged prefix (replay %+v)", info.Replay)
			}
			rows, _, err := fed3.Engine().Run(Query{Class: "Record", Where: MustParseExpr(fmt.Sprintf("isbn = 'wal%d'", failedAt))})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 0 {
				t.Fatalf("unacknowledged batch %d visible after recovery", failedAt)
			}
		})
	}
}

// TestCrashRecoverySilentCorruption flips a byte inside an appended
// frame while reporting success — undetectable until recovery's CRC
// scan, which must cut the tail at the corruption and report damage,
// never silently skip past it.
func TestCrashRecoverySilentCorruption(t *testing.T) {
	dir := t.TempDir()
	fed1, dur1, _ := bootFigure1Durable(t, dir, DurabilityOptions{})
	shipWorkload(t, fed1)
	if err := dur1.Close(); err != nil {
		t.Fatal(err)
	}

	wrap, diskFile := chaos.WrapDisk(chaos.DiskOptions{Seed: 3, Schedule: map[int]chaos.DiskFault{1: chaos.DiskCorrupt}})
	fed2, dur2, _ := bootFigure1Durable(t, dir, DurabilityOptions{WrapWAL: wrap})
	for i := 20; i < 23; i++ {
		if err := shipRecord(t, fed2, i); err != nil {
			t.Fatalf("ship %d: silent corruption must not fail the write: %v", i, err)
		}
	}
	if diskFile().Stats().Corruptions == 0 {
		t.Fatal("corruption fault never fired")
	}
	if err := dur2.Close(); err != nil {
		t.Fatal(err)
	}

	dur3, err := OpenDurability(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dur3.Close()
	if dur3.Info().TailDamage == nil {
		t.Fatal("recovery did not report the corrupted tail")
	}
}

// TestDurabilityWrongDirectory pins the guard against booting over a
// foreign federation's data: the persisted derivation must match the
// re-derived one.
func TestDurabilityWrongDirectory(t *testing.T) {
	dir := t.TempDir()
	fed1, dur1, _ := bootFigure1Durable(t, dir, DurabilityOptions{})
	if err := dur1.Shutdown(fed1); err != nil {
		t.Fatal(err)
	}

	// Boot a DIFFERENT federation (personnel) over the same directory.
	dur2, err := OpenDurability(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	db1, db2 := PersonnelStores()
	// The checkpoint names bibliographic members; replay refuses.
	if err := dur2.RestoreStores(db1, db2); err == nil {
		t.Fatal("replay accepted stores from a different federation")
	}
	// And even with replay skipped, Finish refuses the derivation.
	fed := NewFederation(1, PipelineOptions{Memo: dur2.Memo()})
	if err := fed.Attach(Personnel1(), db1, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(Personnel2(), db2, PersonnelIntegration()); err != nil {
		t.Fatal(err)
	}
	if _, err := dur2.Finish(context.Background(), fed); err == nil {
		t.Fatal("Finish verified a foreign derivation")
	}
}

// TestDurabilityDamagedCheckpoint pins the hard-error path: the
// checkpoint is checksummed and atomically replaced, so damage means
// storage corruption and the boot must refuse rather than serve from a
// half-read snapshot.
func TestDurabilityDamagedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	fed1, dur1, _ := bootFigure1Durable(t, dir, DurabilityOptions{})
	if err := dur1.Shutdown(fed1); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, dir+"/"+checkpointFileName)
	if _, err := OpenDurability(dir, DurabilityOptions{}); err == nil {
		t.Fatal("OpenDurability accepted a damaged checkpoint")
	} else if errors.Is(err, store.ErrNoCheckpoint) {
		t.Fatal("damage misreported as missing checkpoint")
	}
}

// corruptFile flips one byte in the middle of a file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

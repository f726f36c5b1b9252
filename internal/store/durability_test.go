package store

import (
	"os"
	"path/filepath"
	"testing"

	"interopdb/internal/object"
	"interopdb/internal/schema"
)

// tinyDB builds a minimal one-class schema under the given database
// name, for tests that need multiple distinctly-named members.
func tinyDB(t testing.TB, name string) *schema.Database {
	t.Helper()
	d := schema.NewDatabase(name)
	if err := d.AddClass(&schema.Class{Name: "Thing", Attrs: []schema.Attribute{
		{Name: "v", Type: object.TInt},
		{Name: "tag", Type: object.TString},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// assertStoresIdentical is the byte-identity oracle the crash-recovery
// tests rely on: same extents per class in the same order, same
// attribute values kind-for-kind, same OID allocation cursor.
func assertStoresIdentical(t *testing.T, want, got *Store) {
	t.Helper()
	if want.Name() != got.Name() {
		t.Fatalf("store names differ: %s vs %s", want.Name(), got.Name())
	}
	if want.Count() != got.Count() {
		t.Fatalf("%s: object count %d, want %d", want.Name(), got.Count(), want.Count())
	}
	if want.nextOID != got.nextOID {
		t.Fatalf("%s: nextOID %d, want %d", want.Name(), got.nextOID, want.nextOID)
	}
	if len(want.byClass) != len(got.byClass) {
		t.Fatalf("%s: class map size %d, want %d", want.Name(), len(got.byClass), len(want.byClass))
	}
	for cn, wantObjs := range want.byClass {
		gotObjs := got.byClass[cn]
		if len(gotObjs) != len(wantObjs) {
			t.Fatalf("%s: class %s has %d objects, want %d", want.Name(), cn, len(gotObjs), len(wantObjs))
		}
		for i, wo := range wantObjs {
			go_ := gotObjs[i]
			if go_.oid != wo.oid {
				t.Fatalf("%s: class %s position %d: OID %d, want %d (extent order must survive recovery)",
					want.Name(), cn, i, go_.oid, wo.oid)
			}
			if wo.Class() != go_.Class() {
				t.Fatalf("%s: OID %d class %s, want %s", want.Name(), wo.oid, go_.Class(), wo.Class())
			}
			if !object.AttrsEqual(go_.Attrs(), wo.Attrs()) {
				t.Fatalf("%s: OID %d attrs %v, want %v", want.Name(), wo.oid, go_.Attrs(), wo.Attrs())
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := newBookseller(t)
	pub := seedPublisher(t, s, "ACM")
	s.Enforce = false
	s.MustInsert("Monograph", map[string]object.Value{
		"title": object.Str("TM"), "isbn": object.Str("tm-1"),
		"publisher": object.Ref{DB: s.Name(), OID: pub},
		"authors":   object.NewSet(object.Str("Balsters"), object.Str("de By")),
		"shopprice": object.Real(30), "libprice": object.Real(25),
		"subjects": object.NewSet(object.Str("databases")),
	})
	s.Enforce = true
	// Burn OIDs the way an aborted transaction would, so the cursor is
	// ahead of the live population.
	s.nextOID += 5

	mc, err := SnapshotStore(s)
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{LSN: 42, Members: []MemberCheckpoint{mc}}
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.db")
	if err := WriteCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 42 || len(got.Members) != 1 {
		t.Fatalf("checkpoint read back: %+v", got)
	}
	s2 := newBookseller(t)
	m, ok := got.Member("Bookseller")
	if !ok {
		t.Fatal("member Bookseller missing from checkpoint")
	}
	if err := m.RestoreInto(s2); err != nil {
		t.Fatal(err)
	}
	assertStoresIdentical(t, s, s2)

	// Name mismatch refuses.
	other := New(tinyDB(t, "Other"), nil)
	if err := m.RestoreInto(other); err == nil {
		t.Fatal("restore into wrong member accepted")
	}
}

func TestCheckpointMissingAndDamaged(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.db")
	if _, err := ReadCheckpoint(path); err != ErrNoCheckpoint {
		t.Fatalf("missing checkpoint: err = %v", err)
	}
	if err := WriteCheckpoint(path, &Checkpoint{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err == nil || err == ErrNoCheckpoint {
		t.Fatalf("damaged checkpoint: err = %v (must be a hard error)", err)
	}
}

// commitAndLog commits a transaction whose staged changes effs record
// and appends their commit record, in the engine journal's order: the
// record is encoded before the commit and appended after it.
func commitAndLog(t *testing.T, set *DurableSet, member string, batch uint64, tx Txn, effs ...Effect) {
	t.Helper()
	body, err := EncodeCommitRecord(CommitRecord{Member: member, Batch: batch, Ops: effs})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := set.AppendCommit(body); err != nil {
		t.Fatal(err)
	}
}

// runWorkload drives a mixed workload through a member store, logging
// each commit, and returns the OIDs it created.
func runWorkload(t *testing.T, set *DurableSet, s *Store) []object.OID {
	t.Helper()
	var oids []object.OID
	for i := 0; i < 3; i++ {
		tx := s.Begin()
		attrs := map[string]object.Value{"v": object.Int(int64(i)), "tag": object.Str("first")}
		oid, err := tx.Insert("Thing", attrs)
		if err != nil {
			t.Fatal(err)
		}
		commitAndLog(t, set, s.Name(), 0, tx, Capture(s, Effect{Kind: OpInsert, Class: "Thing", OID: oid, Attrs: attrs}))
		oids = append(oids, oid)
	}
	effs := []Effect{
		Capture(s, Effect{Kind: OpUpdate, OID: oids[1], Attrs: map[string]object.Value{"tag": object.Str("second")}}),
		Capture(s, Effect{Kind: OpDelete, OID: oids[2]}),
	}
	tx := s.Begin()
	if err := Stage(tx, effs...); err != nil {
		t.Fatal(err)
	}
	commitAndLog(t, set, s.Name(), 0, tx, effs...)
	// A rolled-back transaction must leave no trace in the log.
	tx = s.Begin()
	if _, err := tx.Insert("Thing", map[string]object.Value{
		"v": object.Int(99), "tag": object.Str("ghost"),
	}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	return oids
}

// TestDurableCrashRecovery is the core kill-and-recover path: run a
// logged workload, "crash" (drop everything except
// the WAL file), rebuild from an empty store + WAL replay, and require
// byte-identical state — including the OID burned by the rollback.
func TestDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := NewDurableSet(w)
	live := New(tinyDB(t, "M1"), nil)
	runWorkload(t, set, live)
	w.Close() // crash point: nothing but the WAL file survives

	_, recs, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(tinyDB(t, "M1"), nil)
	rs := BuildRecovery(nil, recs, nil)
	stats, err := rs.Replay(map[string]*Store{"M1": recovered})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplayedCommits != 4 {
		t.Fatalf("replayed %d commits, want 4", stats.ReplayedCommits)
	}
	// The rollback burned an OID in the live store that the log cannot
	// know about; everything else must match. Align the cursor the way a
	// checkpoint would have, then compare.
	if recovered.nextOID != live.nextOID-1 {
		t.Fatalf("recovered nextOID %d, live %d (only the rolled-back burn may differ)",
			recovered.nextOID, live.nextOID)
	}
	recovered.nextOID = live.nextOID
	assertStoresIdentical(t, live, recovered)
}

// TestDurableCheckpointPlusTail recovers from checkpoint + WAL tail and
// checks the truncated prefix is genuinely redundant.
func TestDurableCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.log")
	ckptPath := filepath.Join(dir, "checkpoint.db")
	w, _, err := OpenWAL(walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := NewDurableSet(w)
	live := New(tinyDB(t, "M1"), nil)
	oids := runWorkload(t, set, live)

	// Checkpoint, then truncate the covered prefix.
	mc, err := SnapshotStore(live)
	if err != nil {
		t.Fatal(err)
	}
	ckptLSN := w.LastLSN()
	if err := WriteCheckpoint(ckptPath, &Checkpoint{LSN: ckptLSN, Members: []MemberCheckpoint{mc}}); err != nil {
		t.Fatal(err)
	}
	if err := w.TruncateThrough(ckptLSN); err != nil {
		t.Fatal(err)
	}

	// Post-checkpoint tail.
	upd := Capture(live, Effect{Kind: OpUpdate, OID: oids[0], Attrs: map[string]object.Value{"tag": object.Str("tail")}})
	tx := live.Begin()
	if err := Stage(tx, upd); err != nil {
		t.Fatal(err)
	}
	commitAndLog(t, set, live.Name(), 0, tx, upd)
	w.Close()

	ckpt, err := ReadCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenWAL(walPath, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(tinyDB(t, "M1"), nil)
	rs := BuildRecovery(ckpt, recs, nil)
	stats, err := rs.Replay(map[string]*Store{"M1": recovered})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RestoredMembers != 1 || stats.ReplayedCommits != 1 {
		t.Fatalf("stats %+v, want 1 restored member and 1 replayed commit", stats)
	}
	assertStoresIdentical(t, live, recovered)

	// Idempotence: a crash during recovery reruns Replay on the same
	// inputs; the second pass must land on the same state.
	stats2, err := rs.Replay(map[string]*Store{"M1": recovered})
	if err != nil {
		t.Fatal(err)
	}
	if stats2 != stats {
		t.Fatalf("second replay stats %+v differ from first %+v", stats2, stats)
	}
	assertStoresIdentical(t, live, recovered)
}

// TestReplaySkipsCoveredRecords feeds Replay a tail that overlaps the
// checkpoint (as after a crash between checkpoint write and WAL
// truncation) and checks covered records are dropped, not re-applied.
func TestReplaySkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := NewDurableSet(w)
	live := New(tinyDB(t, "M1"), nil)
	runWorkload(t, set, live)
	mc, err := SnapshotStore(live)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := &Checkpoint{Version: checkpointVersion, LSN: w.LastLSN(), Members: []MemberCheckpoint{mc}}
	w.Close()

	// The full log is still on disk — BuildRecovery must shed it all.
	_, recs, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rs := BuildRecovery(ckpt, recs, nil)
	if len(rs.Records) != 0 {
		t.Fatalf("BuildRecovery kept %d covered records", len(rs.Records))
	}
	recovered := New(tinyDB(t, "M1"), nil)
	stats, err := rs.Replay(map[string]*Store{"M1": recovered})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReplayedCommits != 0 {
		t.Fatalf("replayed %d covered commits", stats.ReplayedCommits)
	}
	assertStoresIdentical(t, live, recovered)
}

// mustEncode wraps the record encoders for hand-built WAL tails.
func mustEncode(t *testing.T, v any) []byte {
	t.Helper()
	var b []byte
	var err error
	switch r := v.(type) {
	case CommitRecord:
		b, err = EncodeCommitRecord(r)
	case IntentRecord:
		b, err = EncodeIntentRecord(r)
	case ResolveRecord:
		b, err = EncodeResolveRecord(r)
	default:
		t.Fatalf("mustEncode: %T", v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func thingOp(oid object.OID, v int64) Effect {
	return Effect{Kind: OpInsert, Class: "Thing", OID: oid, Attrs: map[string]object.Value{
		"v": object.Int(v), "tag": object.Str("x"),
	}}
}

// TestReplayUnresolvedIntents covers the cross-member atomicity
// decisions: an unresolved intent with one committed member is
// completed on the others; one with no committed member aborts; a
// resolved intent is left alone.
func TestReplayUnresolvedIntents(t *testing.T) {
	opA := thingOp(1, 10)
	opB := thingOp(1, 20)
	intent := IntentRecord{Members: []string{"A", "B"}, Effects: map[string][]Effect{
		"A": {opA}, "B": {opB},
	}}

	t.Run("partial commit completes", func(t *testing.T) {
		recs := []WALRecord{
			{Kind: WALIntent, LSN: 1, Body: mustEncode(t, intent)},
			{Kind: WALCommit, LSN: 2, Body: mustEncode(t, CommitRecord{Member: "A", Batch: 1, Ops: []Effect{opA}})},
		}
		a, b := New(tinyDB(t, "A"), nil), New(tinyDB(t, "B"), nil)
		stats, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": a, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CompletedIntents != 1 || stats.UnresolvedOps != 1 {
			t.Fatalf("stats %+v, want 1 completed intent with 1 op", stats)
		}
		if a.Count() != 1 || b.Count() != 1 {
			t.Fatalf("counts A=%d B=%d, want 1 and 1 (B completed from the intent)", a.Count(), b.Count())
		}
		o, ok := b.Get(1)
		if !ok {
			t.Fatal("B missing completed object")
		}
		if v, _ := o.Get("v"); !v.Equal(object.Int(20)) {
			t.Fatalf("B completed with v=%v", v)
		}
	})

	t.Run("nothing committed aborts", func(t *testing.T) {
		recs := []WALRecord{{Kind: WALIntent, LSN: 1, Body: mustEncode(t, intent)}}
		a, b := New(tinyDB(t, "A"), nil), New(tinyDB(t, "B"), nil)
		stats, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": a, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if stats.AbortedIntents != 1 || stats.CompletedIntents != 0 {
			t.Fatalf("stats %+v, want 1 aborted intent", stats)
		}
		if a.Count() != 0 || b.Count() != 0 {
			t.Fatalf("aborted intent applied state: A=%d B=%d", a.Count(), b.Count())
		}
	})

	t.Run("resolved committed untouched", func(t *testing.T) {
		recs := []WALRecord{
			{Kind: WALIntent, LSN: 1, Body: mustEncode(t, intent)},
			{Kind: WALCommit, LSN: 2, Body: mustEncode(t, CommitRecord{Member: "A", Batch: 1, Ops: []Effect{opA}})},
			{Kind: WALCommit, LSN: 3, Body: mustEncode(t, CommitRecord{Member: "B", Batch: 1, Ops: []Effect{opB}})},
			{Kind: WALResolve, LSN: 4, Body: mustEncode(t, ResolveRecord{Batch: 1, Outcome: ResolveCommitted})},
		}
		a, b := New(tinyDB(t, "A"), nil), New(tinyDB(t, "B"), nil)
		stats, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": a, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CompletedIntents != 0 || stats.AbortedIntents != 0 || stats.CompensatedIntents != 0 {
			t.Fatalf("stats %+v: resolved intent must not be re-settled", stats)
		}
		if a.Count() != 1 || b.Count() != 1 {
			t.Fatalf("counts A=%d B=%d", a.Count(), b.Count())
		}
	})

	t.Run("resolved compensated redone", func(t *testing.T) {
		// The batch's fate was sealed as compensate before the crash; A's
		// forward commit landed but its undo did not. Recovery redoes it.
		recs := []WALRecord{
			{Kind: WALIntent, LSN: 1, Body: mustEncode(t, intent)},
			{Kind: WALCommit, LSN: 2, Body: mustEncode(t, CommitRecord{Member: "A", Batch: 1, Ops: []Effect{opA}})},
			{Kind: WALResolve, LSN: 3, Body: mustEncode(t, ResolveRecord{Batch: 1, Outcome: ResolveCompensated})},
		}
		a, b := New(tinyDB(t, "A"), nil), New(tinyDB(t, "B"), nil)
		stats, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": a, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CompensatedIntents != 1 {
			t.Fatalf("stats %+v, want 1 compensated intent", stats)
		}
		if a.Count() != 0 || b.Count() != 0 {
			t.Fatalf("counts A=%d B=%d, want the batch fully undone", a.Count(), b.Count())
		}
	})

	t.Run("compensated already undone is idempotent", func(t *testing.T) {
		// The undo itself committed (standalone record) before the crash:
		// replay applies forward then inverse from the log, and the
		// settle phase must find nothing left to undo.
		undo := Inverse([]Effect{opA})
		recs := []WALRecord{
			{Kind: WALIntent, LSN: 1, Body: mustEncode(t, intent)},
			{Kind: WALCommit, LSN: 2, Body: mustEncode(t, CommitRecord{Member: "A", Batch: 1, Ops: []Effect{opA}})},
			{Kind: WALResolve, LSN: 3, Body: mustEncode(t, ResolveRecord{Batch: 1, Outcome: ResolveCompensated})},
			{Kind: WALCommit, LSN: 4, Body: mustEncode(t, CommitRecord{Member: "A", Ops: undo})},
		}
		a, b := New(tinyDB(t, "A"), nil), New(tinyDB(t, "B"), nil)
		stats, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": a, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CompensatedIntents != 0 {
			t.Fatalf("stats %+v: nothing should need redoing", stats)
		}
		if a.Count() != 0 || b.Count() != 0 {
			t.Fatalf("counts A=%d B=%d", a.Count(), b.Count())
		}
	})

	t.Run("completion is idempotent", func(t *testing.T) {
		// B already has the effect applied (the commit landed but its
		// record was lost to a torn tail).
		recs := []WALRecord{
			{Kind: WALIntent, LSN: 1, Body: mustEncode(t, intent)},
			{Kind: WALCommit, LSN: 2, Body: mustEncode(t, CommitRecord{Member: "A", Batch: 1, Ops: []Effect{opA}})},
		}
		a, b := New(tinyDB(t, "A"), nil), New(tinyDB(t, "B"), nil)
		b.Enforce = false
		if _, err := b.insertReserved(1, "Thing", map[string]object.Value{
			"v": object.Int(20), "tag": object.Str("x"),
		}); err != nil {
			t.Fatal(err)
		}
		b.nextOID = 2
		b.Enforce = true
		stats, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": a, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if stats.CompletedIntents != 1 || stats.UnresolvedOps != 0 {
			t.Fatalf("stats %+v: already-applied effects must not re-apply", stats)
		}
		if b.Count() != 1 {
			t.Fatalf("B count %d", b.Count())
		}
	})
}

// TestDurableSetIntentResolve drives the DurableSet record appenders
// end to end: intent, a member commit tagged with the intent's LSN, and
// the resolve.
func TestDurableSetIntentResolve(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	set := NewDurableSet(w)
	a := New(tinyDB(t, "A"), nil)

	op := thingOp(1, 10)
	batch, err := set.AppendIntent([]string{"A"}, map[string][]Effect{"A": {op}})
	if err != nil {
		t.Fatal(err)
	}
	tx := a.Begin()
	oid, err := tx.Insert("Thing", op.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if oid != op.OID {
		t.Fatalf("insert got OID %d, want %d", oid, op.OID)
	}
	commitAndLog(t, set, "A", batch, tx, op)
	if err := set.AppendResolve(batch, ResolveCommitted); err != nil {
		t.Fatal(err)
	}
	w.Close()

	_, recs, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("log has %d records, want intent+commit+resolve", len(recs))
	}
	cr, err := DecodeCommitRecord(recs[1].Body)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Batch != batch {
		t.Fatalf("commit record batch %d, want %d", cr.Batch, batch)
	}
	rec := New(tinyDB(t, "A"), nil)
	if _, err := BuildRecovery(nil, recs, nil).Replay(map[string]*Store{"A": rec}); err != nil {
		t.Fatal(err)
	}
	assertStoresIdentical(t, a, rec)
}

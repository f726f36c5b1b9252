package interopdb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"interopdb/internal/store"
	"interopdb/internal/store/chaos"
)

// The WAL goldens pin the on-disk bytes of a scripted durable Figure 1
// run. testdata/wal/figure1-binary.log is what the run writes today:
// binary record bodies, and a single-member batch is one standalone
// commit record. Two older goldens stay as read-compatibility goldens,
// both with JSON bodies: testdata/wal/figure1-standalone.log, written
// before bodies turned binary, and testdata/wal/figure1.log, written
// before the effect record moved into internal/store, when every batch
// wrote intent, commit and resolve records. For an intended format
// change, delete the current golden: the next run writes it anew and
// fails once, so the new file gets read before it is trusted.

// walCapture records every frame the WAL appends and every fsync, in
// order (the WrapWAL hook survives the checkpoint's log rewrite, which
// re-wraps the file).
type walCapture struct {
	mu     sync.Mutex
	frames [][]byte
	// syncs holds, per successful fsync, the number of frames written
	// before it: the log prefix that fsync made durable.
	syncs []int
	// fail makes every later write fail, which seals the log.
	fail bool
}

func (c *walCapture) wrap(f store.WALFile) store.WALFile { return capturedWAL{WALFile: f, c: c} }

// prefix returns the log image holding the header and the first n
// frames — the file a crash right after the n-th append leaves behind.
func (c *walCapture) prefix(n int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	img := []byte("IDBWAL01")
	for _, f := range c.frames[:n] {
		img = append(img, f...)
	}
	return img
}

// cut returns the log image a crash leaves when the first j frames
// reached the disk and frame j+1 only half of it.
func (c *walCapture) cut(j int) []byte {
	img := c.prefix(j)
	c.mu.Lock()
	defer c.mu.Unlock()
	if j < len(c.frames) {
		img = append(img, c.frames[j][:len(c.frames[j])/2]...)
	}
	return img
}

func (c *walCapture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

// syncCount is the number of successful fsyncs so far.
func (c *walCapture) syncCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.syncs)
}

// synced is the number of frames the last fsync made durable.
func (c *walCapture) synced() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.syncs) == 0 {
		return 0
	}
	return c.syncs[len(c.syncs)-1]
}

type capturedWAL struct {
	store.WALFile
	c *walCapture
}

func (w capturedWAL) Write(p []byte) (int, error) {
	w.c.mu.Lock()
	fail := w.c.fail
	w.c.mu.Unlock()
	if fail {
		return 0, errors.New("injected write failure")
	}
	n, err := w.WALFile.Write(p)
	if err == nil {
		w.c.mu.Lock()
		w.c.frames = append(w.c.frames, append([]byte(nil), p...))
		w.c.mu.Unlock()
	}
	return n, err
}

func (w capturedWAL) Sync() error {
	err := w.WALFile.Sync()
	if err == nil {
		w.c.mu.Lock()
		w.c.syncs = append(w.c.syncs, len(w.c.frames))
		w.c.mu.Unlock()
	}
	return err
}

// chaosDurable is a durable three-member Figure 1 federation whose
// member backends are chaos-wrapped in the registry the engine ships
// through, so an injected fault looks to the commit journal — the log's
// only writer — exactly like a member's own failure.
type chaosDurable struct {
	fed   *Federation
	dur   *Durability
	cap   *walCapture
	chaos map[string]*chaos.Backend
	// onReturn, when set, sees the error of every Ship and Reconcile
	// call the scripts make, right after the call returns.
	onReturn func(err error)
}

// returned reports a Ship or Reconcile return to onReturn.
func (cd *chaosDurable) returned(err error) {
	if cd.onReturn != nil {
		cd.onReturn(err)
	}
}

func bootChaosDurable(t *testing.T, dir string) *chaosDurable {
	t.Helper()
	cd := &chaosDurable{cap: &walCapture{}, chaos: map[string]*chaos.Backend{}}
	dur, err := OpenDurability(dir, DurabilityOptions{WrapWAL: cd.cap.wrap})
	if err != nil {
		t.Fatal(err)
	}
	local, remote := Figure1Stores(FixtureOptions{})
	arch := ArchiveStore(FixtureOptions{})
	if err := dur.RestoreStores(local, remote, arch); err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(1, PipelineOptions{Memo: dur.Memo()})
	attachFigure1Three(t, fed, local, remote, arch)
	for _, name := range fed.Members() {
		b, _ := fed.Stores().Get(name)
		cb := chaos.Wrap(b, chaos.Options{})
		if err := fed.Stores().Swap(name, cb); err != nil {
			t.Fatal(err)
		}
		cd.chaos[name] = cb
	}
	fed.Engine().Retry = RetryPolicy{BaseDelay: time.Microsecond, MaxDelay: time.Microsecond, Sleep: func(time.Duration) {}}
	if _, err := dur.Finish(context.Background(), fed); err != nil {
		t.Fatal(err)
	}
	cd.fed, cd.dur = fed, dur
	return cd
}

func attachFigure1Three(t *testing.T, fed *Federation, local, remote, arch *Store) {
	t.Helper()
	if err := fed.Attach(Figure1Library(), local, nil); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(Figure1Bookseller(), remote, Figure1IntegrationRepaired()); err != nil {
		t.Fatal(err)
	}
	if err := fed.Attach(Figure1UnivArchive(), arch, Figure1ArchiveIntegration()); err != nil {
		t.Fatal(err)
	}
}

// viewIDByISBN finds a global object's view ID by its isbn.
func viewIDByISBN(t *testing.T, fed *Federation, isbn string) int {
	t.Helper()
	for _, g := range fed.Result().View.Objects {
		if v, ok := g.Get("isbn"); ok && v.Equal(Str(isbn)) {
			return g.ID
		}
	}
	t.Fatalf("no global object with isbn %s", isbn)
	return 0
}

func recordInsert(isbn string) Mutation {
	return Mutation{Kind: MutInsert, Class: "Record", Attrs: map[string]Value{
		"title": Str("Archived " + isbn), "isbn": Str(isbn),
		"keeper": Str("Annex"), "price": Real(15), "pages": Int(150),
	}}
}

func itemInsert(isbn string) Mutation {
	return Mutation{Kind: MutInsert, Class: "Item", Attrs: map[string]Value{
		"title": Str("Shelved " + isbn), "isbn": Str(isbn),
		"publisher": Ref{DB: "Bookseller", OID: 2},
		"shopprice": Real(50), "libprice": Real(40),
	}}
}

// vldbBatch is a cross-member batch: an archive insert, a bookseller
// insert and a title update of the three-way merged vldb96 object. The
// commit order is first use: archive, bookseller, library (the update
// alone fans out in attach order, TestUpdateCommitOrderFollowsMembers).
func vldbBatch(t *testing.T, fed *Federation, tag string) []Mutation {
	return []Mutation{
		recordInsert("rec-" + tag),
		itemInsert("item-" + tag),
		{Kind: MutUpdate, Class: "Publication", ID: viewIDByISBN(t, fed, "vldb96"),
			Attrs: map[string]Value{"title": Str("Proceedings of the 22nd VLDB Conference (" + tag + ")")}},
	}
}

// lateRejection ships a vldb batch whose last member (the library)
// permanently rejects it after its peers committed: Ship compensates
// the committed prefix inline and returns the rejection.
func lateRejection(t *testing.T, cd *chaosDurable, tag string) {
	t.Helper()
	ops := vldbBatch(t, cd.fed, tag)
	cd.chaos["CSLibrary"].ScheduleNext(chaos.FaultPermanent, 1)
	err := cd.fed.Engine().Ship(context.Background(), ops)
	cd.returned(err)
	if err == nil || errors.Is(err, ErrPartialCommit) {
		t.Fatalf("late rejection: err = %v, want a compensated rejection", err)
	}
	if fs := cd.fed.Engine().FaultStats(); fs.CompensatedInline == 0 {
		t.Fatalf("late rejection was not compensated inline: %+v", fs)
	}
}

// strandedBatch ships a vldb batch while the library fails every commit
// attempt: archive and bookseller commit, the library strands, and
// Reconcile completes the batch once the schedule is spent.
func strandedBatch(t *testing.T, cd *chaosDurable, tag string) {
	t.Helper()
	ops := vldbBatch(t, cd.fed, tag)
	cd.chaos["CSLibrary"].ScheduleNext(chaos.FaultTransient, 4)
	err := cd.fed.Engine().Ship(context.Background(), ops)
	cd.returned(err)
	if !errors.Is(err, ErrPartialCommit) {
		t.Fatalf("outage mid-batch: err = %v, want ErrPartialCommit", err)
	}
	rs, err := cd.fed.Engine().Reconcile(context.Background())
	cd.returned(err)
	if err != nil || rs.Completed != 1 || rs.Pending != 0 {
		t.Fatalf("Reconcile = %+v, %v; want 1 completed, 0 pending", rs, err)
	}
}

// runGoldenScript drives the scripted workload the golden records.
func runGoldenScript(t *testing.T, cd *chaosDurable) {
	t.Helper()
	ctx := context.Background()
	e := cd.fed.Engine()
	ship := func(what string, ops ...Mutation) {
		t.Helper()
		err := e.Ship(ctx, ops)
		cd.returned(err)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	ship("singleton insert", recordInsert("golden-1"))
	id := viewIDByISBN(t, cd.fed, "golden-1")
	ship("singleton update", Mutation{Kind: MutUpdate, Class: "Record", ID: id, Attrs: map[string]Value{"price": Real(17.5)}})
	ship("singleton delete", Mutation{Kind: MutDelete, Class: "Record", ID: id})
	ship("cross-member update", vldbBatch(t, cd.fed, "durable printing")...)
	cd.chaos["UnivArchive"].ScheduleNext(chaos.FaultAfterCommit, 1)
	ship("fail-after-commit insert", recordInsert("golden-2"))
	lateRejection(t, cd, "doomed")
	strandedBatch(t, cd, "stranded")
}

// liveSnapshots renders every member store of the federation.
func liveSnapshots(t *testing.T, fed *Federation) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range fed.Members() {
		m, _ := fed.Member(name)
		out[name] = snapshotJSON(t, m.Store)
	}
	return out
}

// snapshotJSON renders a member store: extents, insertion order and the
// OID counter.
func snapshotJSON(t *testing.T, s *Store) string {
	t.Helper()
	mc, err := store.SnapshotStore(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// replayStores replays a log image into freshly seeded Figure 1 stores
// the way a boot does (no checkpoint: the image starts at the first
// boot's first append); the scan cuts a torn or damaged tail.
func replayStores(t *testing.T, img []byte) (map[string]*Store, store.ReplayStats) {
	t.Helper()
	recs, _, damage := store.ScanWAL(img)
	local, remote := Figure1Stores(FixtureOptions{})
	arch := ArchiveStore(FixtureOptions{})
	stores := map[string]*Store{local.Name(): local, remote.Name(): remote, arch.Name(): arch}
	stats, err := store.BuildRecovery(nil, recs, damage).Replay(stores)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return stores, stats
}

// replayImage replays an undamaged log image and renders every member
// store.
func replayImage(t *testing.T, img []byte) (map[string]string, store.ReplayStats) {
	t.Helper()
	if _, _, damage := store.ScanWAL(img); damage != nil {
		t.Fatalf("log image damaged: %v", damage)
	}
	stores, stats := replayStores(t, img)
	out := map[string]string{}
	for name, s := range stores {
		out[name] = snapshotJSON(t, s)
	}
	return out, stats
}

// TestWALGoldenFigure1 pins the log format end to end: the scripted
// durable run — singleton insert, update and delete, the cross-member
// vldb96 update, a fail-after-commit resolved by verification, a late
// rejection compensated inline and an outage-stranded batch finished by
// Reconcile — writes exactly the current golden's bytes, and replaying
// any golden into fresh stores rebuilds exactly the live member state.
func TestWALGoldenFigure1(t *testing.T) {
	cd := bootChaosDurable(t, t.TempDir())
	runGoldenScript(t, cd)
	if err := cd.dur.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(cd.dur.dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, cd.cap.prefix(cd.cap.count())) {
		t.Fatal("wal.log differs from the captured appends")
	}

	path := filepath.Join("testdata", "wal", "figure1-binary.log")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: written from the current behaviour — inspect it and run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		wantRecs, _, _ := store.ScanWAL(want)
		gotRecs, _, _ := store.ScanWAL(got)
		for i := 0; i < len(wantRecs) || i < len(gotRecs); i++ {
			var w, g string
			if i < len(wantRecs) {
				w = fmt.Sprintf("kind %d %q", wantRecs[i].Kind, wantRecs[i].Body)
			}
			if i < len(gotRecs) {
				g = fmt.Sprintf("kind %d %q", gotRecs[i].Kind, gotRecs[i].Body)
			}
			if w != g {
				t.Fatalf("record %d differs from the golden:\n  golden: %s\n  got:    %s", i+1, w, g)
			}
		}
		t.Fatal("log bytes differ from the golden")
	}

	live := liveSnapshots(t, cd.fed)
	for _, name := range []string{"figure1-binary.log", "figure1-standalone.log", "figure1.log"} {
		img, err := os.ReadFile(filepath.Join("testdata", "wal", name))
		if err != nil {
			t.Fatal(err)
		}
		replayed, stats := replayImage(t, img)
		if !reflect.DeepEqual(replayed, live) {
			for member := range live {
				if replayed[member] != live[member] {
					t.Errorf("%s, member %s: replay diverges from the live store\nreplay: %s\n  live: %s", name, member, replayed[member], live[member])
				}
			}
		}
		if stats.CompletedIntents != 0 || stats.CompensatedIntents != 0 {
			t.Errorf("%s: every golden intent is resolved, yet replay settled some: %+v", name, stats)
		}
	}
}

// TestCrashAtEveryAppend cuts the log after every append of the two
// fault scripts and replays each prefix into fresh stores. A prefix in
// which nothing of the batch committed, or whose intent is resolved
// "compensated", must recover the pre-batch state; a prefix in which
// some member committed and no resolve record says otherwise must
// recover the completed batch — on every member, including one whose
// manager rejected it (completion replays bypass the manager).
func TestCrashAtEveryAppend(t *testing.T) {
	for _, sc := range []struct {
		name string
		run  func(*testing.T, *chaosDurable, string)
	}{
		{"late-rejection", lateRejection},
		{"stranded-batch", strandedBatch},
	} {
		t.Run(sc.name, func(t *testing.T) {
			cd := bootChaosDurable(t, t.TempDir())
			before := withoutOIDCounters(t, liveSnapshots(t, cd.fed))
			sc.run(t, cd, "crash")
			completed := withoutOIDCounters(t, cleanBatchState(t))
			n := cd.cap.count()
			if n < 4 {
				t.Fatalf("script appended %d records, want at least intent, two commits and a resolve", n)
			}
			for k := 0; k <= n; k++ {
				img := cd.cap.prefix(k)
				recs, _, _ := store.ScanWAL(img)
				want, label := before, "pre-batch"
				if committedUnresolved(t, recs) {
					want, label = completed, "completed"
				}
				got, _ := replayImage(t, img)
				if !reflect.DeepEqual(withoutOIDCounters(t, got), want) {
					t.Errorf("crash after append %d/%d: recovered state is not the %s state", k, n, label)
				}
			}
		})
	}
}

// marker names one attribute of the object a member holds under an
// isbn; markerValue renders it, or "absent" when no object has the isbn.
type marker struct{ member, isbn, attr string }

// vldbMarkers are the changes vldbBatch(tag) makes when it completes:
// its two inserts and the vldb96 title on all three members.
func vldbMarkers(tag string) map[marker]string {
	title := Str("Proceedings of the 22nd VLDB Conference (" + tag + ")").String()
	return map[marker]string{
		{"UnivArchive", "rec-" + tag, "title"}: Str("Archived rec-" + tag).String(),
		{"Bookseller", "item-" + tag, "title"}: Str("Shelved item-" + tag).String(),
		{"UnivArchive", "vldb96", "title"}:     title,
		{"Bookseller", "vldb96", "title"}:      title,
		{"CSLibrary", "vldb96", "title"}:       title,
	}
}

func markerValue(t *testing.T, members map[string]store.MemberCheckpoint, m marker) string {
	t.Helper()
	for _, ce := range members[m.member].Classes {
		for _, o := range ce.Objects {
			isbn, ok := o.Attrs["isbn"]
			if !ok || !isbn.Equal(Str(m.isbn)) {
				continue
			}
			v, ok := o.Attrs[m.attr]
			if !ok {
				t.Fatalf("%v: attribute missing", m)
			}
			return v.String()
		}
	}
	return "absent"
}

// recoverCut replays a log image, torn tail included, and snapshots
// every member store.
func recoverCut(t *testing.T, img []byte) map[string]store.MemberCheckpoint {
	t.Helper()
	stores, _ := replayStores(t, img)
	out := map[string]store.MemberCheckpoint{}
	for name, s := range stores {
		mc, err := store.SnapshotStore(s)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = mc
	}
	return out
}

// TestCrashAtEverySync runs the golden script, records after every Ship
// and Reconcile return its outcome and how many frames the last fsync
// had made durable, and then crashes the node at every frame: the
// first j frames on disk and half of frame j+1. Every outcome reported
// over a synced prefix no longer than j must hold in the recovered
// state, read off the batch's marker keys — an acknowledged batch (or
// one reported partially committed) is present, a rejected one absent.
// The one batch in flight at the cut recovers pre-batch or completed,
// by TestCrashAtEveryAppend's rule.
func TestCrashAtEverySync(t *testing.T) {
	type ret struct {
		what    string
		applied bool // the outcome reports the batch applied (or bound to be)
		forward map[marker]string
		synced  int
		err     error
	}
	golden1 := func(v string) map[marker]string {
		return map[marker]string{{"UnivArchive", "golden-1", "price"}: v}
	}
	rets := []ret{
		{what: "singleton insert", applied: true, forward: golden1(Real(15).String())},
		{what: "singleton update", applied: true, forward: golden1(Real(17.5).String())},
		{what: "singleton delete", applied: true, forward: golden1("absent")},
		{what: "cross-member update", applied: true, forward: vldbMarkers("durable printing")},
		{what: "fail-after-commit insert", applied: true, forward: map[marker]string{{"UnivArchive", "golden-2", "title"}: Str("Archived golden-2").String()}},
		{what: "late rejection", forward: vldbMarkers("doomed")},
		{what: "stranded batch", applied: true, forward: vldbMarkers("stranded")},
		{what: "Reconcile of the stranded batch", applied: true, forward: vldbMarkers("stranded")},
	}

	cd := bootChaosDurable(t, t.TempDir())
	seen := 0
	cd.onReturn = func(err error) {
		if seen < len(rets) {
			rets[seen].synced, rets[seen].err = cd.cap.synced(), err
		}
		seen++
	}
	runGoldenScript(t, cd)
	if seen != len(rets) {
		t.Fatalf("script made %d Ship/Reconcile calls, want %d", seen, len(rets))
	}
	n := cd.cap.count()
	for i, r := range rets {
		if wantErr := r.what == "late rejection" || r.what == "stranded batch"; (r.err != nil) != wantErr {
			t.Fatalf("%s: err = %v", r.what, r.err)
		}
		if i > 0 && r.synced <= rets[i-1].synced {
			t.Errorf("%s: returned with no new fsync (synced frames %d)", r.what, r.synced)
		}
	}
	if last := rets[len(rets)-1].synced; last != n {
		t.Fatalf("script ended with %d of %d frames synced", last, n)
	}

	// claims[r+1] is the marker state outcomes 0..r report; claims[0]
	// the seeded stores.
	initial := recoverCut(t, cd.cap.prefix(0))
	claims := []map[marker]string{{}}
	for _, r := range rets {
		for m := range r.forward {
			claims[0][m] = markerValue(t, initial, m)
		}
	}
	for _, r := range rets {
		next := maps.Clone(claims[len(claims)-1])
		if r.applied {
			maps.Copy(next, r.forward)
		}
		claims = append(claims, next)
	}

	for j := 0; j <= n; j++ {
		settled, from := 0, 0
		for settled < len(rets) && rets[settled].synced <= j {
			from = rets[settled].synced
			settled++
		}
		want, label := claims[settled], "settled outcomes"
		if settled < len(rets) {
			recs, _, _ := store.ScanWAL(cd.cap.prefix(j))
			if committedUnresolved(t, recs[from:]) {
				want, label = maps.Clone(want), rets[settled].what+" completed"
				maps.Copy(want, rets[settled].forward)
			}
		}
		got := recoverCut(t, cd.cap.cut(j))
		for m, v := range want {
			if g := markerValue(t, got, m); g != v {
				t.Errorf("crash after frame %d/%d (%d outcome(s) synced, %s): %v = %s, want %s", j, n, settled, label, m, g, v)
			}
		}
	}
}

// TestOneFsyncPerBatch counts the log writes and fsyncs behind each
// kind of engine call, through the WrapWAL hook: one record and one
// fsync for a single-member batch, intent, three commits and resolve
// under one fsync for the three-member vldb96 update, nothing for a
// batch that never reaches a member commit or an idle Reconcile — and
// no call returns over an unsynced frame.
func TestOneFsyncPerBatch(t *testing.T) {
	cd := bootChaosDurable(t, t.TempDir())
	e := cd.fed.Engine()
	ctx := context.Background()
	unsynced := func(what string) {
		if s, n := cd.cap.synced(), cd.cap.count(); s != n {
			t.Errorf("%s returned over %d unsynced frame(s)", what, n-s)
		}
	}
	cd.onReturn = func(error) { unsynced("a scripted call") }
	step := func(what string, writes, syncs int, run func()) {
		t.Helper()
		w0, s0 := cd.cap.count(), cd.cap.syncCount()
		run()
		if got := cd.cap.count() - w0; got != writes {
			t.Errorf("%s: %d log write(s), want %d", what, got, writes)
		}
		if got := cd.cap.syncCount() - s0; got != syncs {
			t.Errorf("%s: %d fsync(s), want %d", what, got, syncs)
		}
		unsynced(what)
	}
	ship := func(what string, wantErr error, ops ...Mutation) func() {
		return func() {
			t.Helper()
			if err := e.Ship(ctx, ops); !errors.Is(err, wantErr) {
				t.Fatalf("%s: err = %v, want %v", what, err, wantErr)
			}
		}
	}
	step("single-member insert", 1, 1, ship("insert", nil, recordInsert("count-1")))
	id := viewIDByISBN(t, cd.fed, "count-1")
	step("single-member update", 1, 1, ship("update", nil, Mutation{Kind: MutUpdate, Class: "Record", ID: id, Attrs: map[string]Value{"price": Real(16)}}))
	step("single-member delete", 1, 1, ship("delete", nil, Mutation{Kind: MutDelete, Class: "Record", ID: id}))
	vldb := viewIDByISBN(t, cd.fed, "vldb96")
	step("three-member vldb96 update", 5, 1, ship("vldb96 update", nil, Mutation{Kind: MutUpdate, Class: "Publication", ID: vldb,
		Attrs: map[string]Value{"title": Str("Proceedings of the 22nd VLDB Conference (counted)")}}))
	step("batch refused by Validate", 0, 0, func() {
		rejs, _, err := e.Validate(ctx, []Mutation{{Kind: MutUpdate, Class: "Proceedings", ID: vldb, Attrs: map[string]Value{"ref?": Bool(false)}}})
		if err != nil || len(rejs) == 0 {
			t.Fatalf("Validate = %v, %v; want a rejection", rejs, err)
		}
	})
	cd.chaos["UnivArchive"].ScheduleNext(chaos.FaultPermanent, 1)
	step("single-member batch its member rejects", 0, 0, func() {
		if err := e.Ship(ctx, []Mutation{recordInsert("count-2")}); err == nil || errors.Is(err, ErrMemberUnavailable) {
			t.Fatalf("member rejection: err = %v, want the member's rejection", err)
		}
	})
	step("late rejection compensated inline", 6, 1, func() { lateRejection(t, cd, "count") })
	step("stranded batch, then its Reconcile", 5, 2, func() { strandedBatch(t, cd, "count") })
	cd.chaos["UnivArchive"].ScheduleNext(chaos.FaultTransient, 4)
	step("single-member batch aborted on an outage", 0, 0, ship("outage", ErrMemberUnavailable, recordInsert("count-3")))
	step("idle Reconcile", 0, 0, func() {
		if _, err := e.Reconcile(ctx); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUpdateCommitOrderFollowsMembers ships an update-only batch of the
// three-way merged vldb96 object 20 times. The update fans out to all
// three members, and every intent record must list them in attach
// order: the order, and so the log bytes, cannot vary from run to run.
func TestUpdateCommitOrderFollowsMembers(t *testing.T) {
	cd := bootChaosDurable(t, t.TempDir())
	id := viewIDByISBN(t, cd.fed, "vldb96")
	for i := 0; i < 20; i++ {
		op := Mutation{Kind: MutUpdate, Class: "Publication", ID: id,
			Attrs: map[string]Value{"title": Str(fmt.Sprintf("Proceedings of the 22nd VLDB Conference (%d)", i))}}
		if err := cd.fed.Engine().Ship(context.Background(), []Mutation{op}); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	want := cd.fed.Members()
	recs, _, _ := store.ScanWAL(cd.cap.prefix(cd.cap.count()))
	intents := 0
	for _, r := range recs {
		if r.Kind != store.WALIntent {
			continue
		}
		ir, err := store.DecodeIntentRecord(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		intents++
		if !reflect.DeepEqual(ir.Members, want) {
			t.Fatalf("intent %d lists members %v, want attach order %v", intents, ir.Members, want)
		}
	}
	if intents != 20 {
		t.Fatalf("log holds %d intent records, want 20", intents)
	}
}

// TestSealedLogReconcileLeavesMemberUntouched strands a batch on the
// library, then seals the log. Reconcile must not run the library's
// member commit — the change could not be logged — and the entry must
// stay pending for the restarted node's recovery to settle.
func TestSealedLogReconcileLeavesMemberUntouched(t *testing.T) {
	cd := bootChaosDurable(t, t.TempDir())
	e := cd.fed.Engine()
	lib := cd.chaos["CSLibrary"]
	lib.ScheduleNext(chaos.FaultTransient, 4)
	if err := e.Ship(context.Background(), vldbBatch(t, cd.fed, "sealed")); !errors.Is(err, ErrPartialCommit) {
		t.Fatalf("outage mid-batch: err = %v, want ErrPartialCommit", err)
	}
	m, _ := cd.fed.Member("CSLibrary")
	before := snapshotJSON(t, m.Store)

	cd.cap.mu.Lock()
	cd.cap.fail = true
	cd.cap.mu.Unlock()
	if err := e.Ship(context.Background(), []Mutation{recordInsert("sealer")}); err == nil {
		t.Fatal("ship succeeded although the log cannot be written")
	}
	if cd.dur.WAL().Sealed() == nil {
		t.Fatal("log not sealed after a failed append")
	}

	attempts := lib.Stats().CommitAttempts
	rs, err := e.Reconcile(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := lib.Stats().CommitAttempts; got != attempts {
		t.Errorf("Reconcile ran %d library commit(s) on a sealed log", got-attempts)
	}
	if after := snapshotJSON(t, m.Store); after != before {
		t.Error("Reconcile changed the pending library store on a sealed log")
	}
	if rs.Completed != 0 || rs.Pending != 1 {
		t.Errorf("Reconcile = %+v; want nothing completed and the entry pending", rs)
	}
	h := e.Health()
	if len(h.Entries) != 1 || !reflect.DeepEqual(h.Entries[0].Pending, []string{"CSLibrary"}) {
		t.Errorf("journal entries %+v; want one entry pending on CSLibrary", h.Entries)
	}
}

// withoutOIDCounters drops the OID counters from member snapshots: a
// compensated insert burns its OID, so "pre-batch" means the same
// objects, not the same next allocation.
func withoutOIDCounters(t *testing.T, snaps map[string]string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(snaps))
	for name, s := range snaps {
		var mc store.MemberCheckpoint
		if err := json.Unmarshal([]byte(s), &mc); err != nil {
			t.Fatal(err)
		}
		mc.NextOID = 0
		b, err := json.Marshal(mc)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

// committedUnresolved reports whether a log prefix holds a member
// commit of the batch and no resolve record for it — the case recovery
// completes. Any other prefix recovers the pre-batch state.
func committedUnresolved(t *testing.T, recs []store.WALRecord) bool {
	t.Helper()
	committed, resolved := false, ""
	for _, r := range recs {
		switch r.Kind {
		case store.WALCommit:
			cr, err := store.DecodeCommitRecord(r.Body)
			if err != nil {
				t.Fatal(err)
			}
			if cr.Batch != 0 && resolved == "" {
				committed = true
			}
		case store.WALResolve:
			rr, err := store.DecodeResolveRecord(r.Body)
			if err != nil {
				t.Fatal(err)
			}
			resolved = rr.Outcome
		}
	}
	return committed && resolved != store.ResolveCompensated
}

// cleanBatchState ships the fault scripts' batch on a fault-free,
// non-durable twin and returns its member state: what "completed" means.
func cleanBatchState(t *testing.T) map[string]string {
	t.Helper()
	local, remote := Figure1Stores(FixtureOptions{})
	arch := ArchiveStore(FixtureOptions{})
	fed := NewFederation(1, PipelineOptions{})
	attachFigure1Three(t, fed, local, remote, arch)
	if err := fed.Engine().Ship(context.Background(), vldbBatch(t, fed, "crash")); err != nil {
		t.Fatalf("fault-free batch: %v", err)
	}
	return liveSnapshots(t, fed)
}

package interopdb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"interopdb/internal/store"
	"interopdb/internal/store/chaos"
)

// The WAL golden pins the on-disk bytes of a scripted durable Figure 1
// run. testdata/wal/figure1.log was written BEFORE the effect record
// moved into internal/store: it is what "byte-identical log" means for
// that change. For an intended format change, delete the golden: the
// next run writes it anew and fails once, so the new file gets read
// before it is trusted.

// walCapture records every frame the WAL appends, in order (the WrapWAL
// hook survives the checkpoint's log rewrite, which re-wraps the file).
type walCapture struct {
	mu     sync.Mutex
	frames [][]byte
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

func (c *walCapture) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

type capturedWAL struct {
	store.WALFile
	c *walCapture
}

func (w capturedWAL) Write(p []byte) (int, error) {
	n, err := w.WALFile.Write(p)
	if err == nil {
		w.c.mu.Lock()
		w.c.frames = append(w.c.frames, append([]byte(nil), p...))
		w.c.mu.Unlock()
	}
	return n, err
}

// chaosDurable is a durable three-member Figure 1 federation whose
// members are chaos-wrapped UNDER the WAL wrapper, so an injected fault
// looks to the log exactly like a member's own failure.
type chaosDurable struct {
	fed   *Federation
	dur   *Durability
	cap   *walCapture
	chaos map[string]*chaos.Backend
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
// update alone would fan out to the members in map order; leading with
// one insert per member pins the commit order to archive, bookseller,
// library, so the log bytes are deterministic.
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
	if err := cd.fed.Engine().Ship(context.Background(), ops); !errors.Is(err, ErrPartialCommit) {
		t.Fatalf("outage mid-batch: err = %v, want ErrPartialCommit", err)
	}
	rs, err := cd.fed.Engine().Reconcile(context.Background())
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
		if err := e.Ship(ctx, ops); err != nil {
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

// replayImage replays a log image into freshly seeded Figure 1 stores
// (no checkpoint: the image starts at the first boot's first append).
func replayImage(t *testing.T, img []byte) (map[string]string, store.ReplayStats) {
	t.Helper()
	recs, _, damage := store.ScanWAL(img)
	if damage != nil {
		t.Fatalf("log image damaged: %v", damage)
	}
	local, remote := Figure1Stores(FixtureOptions{})
	arch := ArchiveStore(FixtureOptions{})
	stats, err := store.BuildRecovery(nil, recs, nil).Replay(map[string]*store.Store{
		local.Name(): local, remote.Name(): remote, arch.Name(): arch,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	out := map[string]string{}
	for _, s := range []*Store{local, remote, arch} {
		out[s.Name()] = snapshotJSON(t, s)
	}
	return out, stats
}

// TestWALGoldenFigure1 pins the log format end to end: the scripted
// durable run — singleton insert, update and delete, the cross-member
// vldb96 update, a fail-after-commit resolved by verification, a late
// rejection compensated inline and an outage-stranded batch finished by
// Reconcile — writes exactly the golden's bytes, and replaying the
// golden into fresh stores rebuilds exactly the live member state.
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

	path := filepath.Join("testdata", "wal", "figure1.log")
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
				w = fmt.Sprintf("kind %d %s", wantRecs[i].Kind, wantRecs[i].Body)
			}
			if i < len(gotRecs) {
				g = fmt.Sprintf("kind %d %s", gotRecs[i].Kind, gotRecs[i].Body)
			}
			if w != g {
				t.Fatalf("record %d differs from the golden:\n  golden: %s\n  got:    %s", i+1, w, g)
			}
		}
		t.Fatal("log bytes differ from the golden")
	}

	replayed, stats := replayImage(t, want)
	if live := liveSnapshots(t, cd.fed); !reflect.DeepEqual(replayed, live) {
		for name := range live {
			if replayed[name] != live[name] {
				t.Errorf("member %s: replay of the golden diverges from the live store\nreplay: %s\n  live: %s", name, replayed[name], live[name])
			}
		}
	}
	if stats.CompletedIntents != 0 || stats.CompensatedIntents != 0 {
		t.Errorf("every golden intent is resolved, yet replay settled some: %+v", stats)
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

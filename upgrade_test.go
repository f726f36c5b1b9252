package interopdb

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"interopdb/internal/store"
)

// The read-compatibility goldens for files earlier versions wrote:
// testdata/checkpoint/figure1-v1.db is the IDBCKPT1 (JSON payload)
// checkpoint the first boot of the three-member Figure 1 federation
// wrote, and testdata/wal/figure1-standalone.log is the JSON-body log
// of the golden script (TestWALGoldenFigure1). Neither may be
// rewritten: they stand for data directories already on disk.

// restoreCheckpoint restores every member of a checkpoint into freshly
// seeded Figure 1 stores and renders them.
func restoreCheckpoint(t *testing.T, ck *store.Checkpoint) map[string]string {
	t.Helper()
	local, remote := Figure1Stores(FixtureOptions{})
	arch := ArchiveStore(FixtureOptions{})
	out := map[string]string{}
	for _, s := range []*Store{local, remote, arch} {
		mc, ok := ck.Member(s.Name())
		if !ok {
			t.Fatalf("checkpoint has no member %s", s.Name())
		}
		if err := mc.RestoreInto(s); err != nil {
			t.Fatal(err)
		}
		out[s.Name()] = snapshotJSON(t, s)
	}
	return out
}

// TestCheckpointV1Golden reads the JSON checkpoint an earlier version
// wrote and requires it to restore exactly the state a checkpoint of
// today's format holds for the same boot: same LSN, same member
// stores, same derived sections byte for byte.
func TestCheckpointV1Golden(t *testing.T) {
	v1, err := store.ReadCheckpoint(filepath.Join("testdata", "checkpoint", "figure1-v1.db"))
	if err != nil {
		t.Fatal(err)
	}
	cd := bootChaosDurable(t, t.TempDir())
	path := filepath.Join(cd.dur.dir, checkpointFileName)
	v2, err := store.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v2.Version != 2 {
		t.Fatalf("versions read %d and %d, want 1 and 2", v1.Version, v2.Version)
	}
	if v1.LSN != v2.LSN {
		t.Fatalf("LSN %d, want %d", v1.LSN, v2.LSN)
	}
	live := liveSnapshots(t, cd.fed)
	if got := restoreCheckpoint(t, v1); !reflect.DeepEqual(got, live) {
		t.Errorf("v1 checkpoint restores\n%v\nwant\n%v", got, live)
	}
	if got := restoreCheckpoint(t, v2); !reflect.DeepEqual(got, live) {
		t.Errorf("v2 checkpoint restores\n%v\nwant\n%v", got, live)
	}
	if len(v1.Derived) != len(v2.Derived) {
		t.Fatalf("derived sections %d, want %d", len(v1.Derived), len(v2.Derived))
	}
	for name, sec := range v2.Derived {
		if !bytes.Equal(v1.Derived[name], sec) {
			t.Errorf("derived section %s differs:\n  v1 %s\n  v2 %s", name, v1.Derived[name], sec)
		}
	}
}

// TestUpgradeFromJSONFiles boots a data directory an upgrade leaves
// behind: the v1 checkpoint, then a log whose records are first the
// earlier version's JSON bodies and then binary ones written after the
// upgrade. OpenDurability → RestoreStores → Finish must reach the
// acknowledged state, and the checkpoint Finish writes must be binary.
func TestUpgradeFromJSONFiles(t *testing.T) {
	// The acknowledged history, written by today's code: the golden
	// script, whose records the JSON golden holds too, then two more
	// batches.
	live := bootChaosDurable(t, t.TempDir())
	runGoldenScript(t, live)
	jsonLog, err := os.ReadFile(filepath.Join("testdata", "wal", "figure1-standalone.log"))
	if err != nil {
		t.Fatal(err)
	}
	jsonRecs, _, damage := store.ScanWAL(jsonLog)
	if damage != nil || len(jsonRecs) != live.cap.count() {
		t.Fatalf("JSON golden holds %d records (damage %v), the script wrote %d", len(jsonRecs), damage, live.cap.count())
	}
	ctx := context.Background()
	if err := live.fed.Engine().Ship(ctx, []Mutation{recordInsert("upgraded-1")}); err != nil {
		t.Fatal(err)
	}
	if err := live.fed.Engine().Ship(ctx, vldbBatch(t, live.fed, "upgraded")); err != nil {
		t.Fatal(err)
	}
	n := len(jsonRecs)
	image := append(jsonLog, live.cap.prefix(live.cap.count())[len(live.cap.prefix(n)):]...)

	dir := t.TempDir()
	v1, err := os.ReadFile(filepath.Join("testdata", "checkpoint", "figure1-v1.db"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFileName), image, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _, damage := store.ScanWAL(image)
	if damage != nil || len(recs) <= n || recs[0].Body[0] != '{' || recs[n].Body[0] == '{' {
		t.Fatalf("upgrade image: %d records, damage %v; want JSON bodies then binary ones", len(recs), damage)
	}

	fed, _, info := bootFigure1Durable(t, dir, DurabilityOptions{})
	if info.ColdStart || info.Replay.RestoredMembers != 3 || info.Replay.ReplayedCommits == 0 || !info.DerivationVerified {
		t.Fatalf("upgrade boot: %+v", info)
	}
	if got, want := liveSnapshots(t, fed), liveSnapshots(t, live.fed); !reflect.DeepEqual(got, want) {
		for member := range want {
			if got[member] != want[member] {
				t.Errorf("member %s: recovered\n%s\nwant\n%s", member, got[member], want[member])
			}
		}
	}
	ck, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(ck[:8]) != "IDBCKPT2" {
		t.Fatalf("Finish wrote a checkpoint with magic %q, want IDBCKPT2", ck[:8])
	}
}

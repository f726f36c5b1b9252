package chaos

import (
	"errors"
	"path/filepath"
	"testing"

	"interopdb/internal/store"
)

func openFaultyWAL(t *testing.T, opts DiskOptions) (*store.WAL, func() *DiskFile, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	wrap, get := WrapDisk(opts)
	w, _, err := store.OpenWAL(path, store.WALOptions{WrapFile: wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, get, path
}

func reopenRecords(t *testing.T, path string) []store.WALRecord {
	t.Helper()
	w, recs, err := store.OpenWAL(path, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	return recs
}

// TestDiskFaultSeals drives each hard disk-fault mode at the third
// write, after two appends and a sync, and checks: the fault surfaces
// transient at the durability point — the append for a write fault,
// the following Sync for an fsync fault — the log seals, and the
// synced prefix recovers clean.
func TestDiskFaultSeals(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault DiskFault
	}{
		{"short write", DiskShortWrite},
		{"write error", DiskWriteError},
		{"fsync error", DiskSyncError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, get, path := openFaultyWAL(t, DiskOptions{Schedule: map[int]DiskFault{3: tc.fault}})
			for i := 0; i < 2; i++ {
				if _, err := w.Append(store.WALCommit, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			_, err := w.Append(store.WALCommit, []byte{9})
			if tc.fault == DiskSyncError {
				if err != nil {
					t.Fatalf("append before the faulted fsync: %v", err)
				}
				err = w.Sync()
			}
			if err == nil {
				t.Fatal("fault was not reported")
			}
			if !store.IsTransient(err) {
				t.Fatalf("fault error %v does not match ErrUnavailable", err)
			}
			if _, err := w.Append(store.WALCommit, []byte{10}); !errors.Is(err, store.ErrWALSealed) {
				t.Fatalf("post-fault append err = %v, want sealed", err)
			}
			if get().Stats().Injected != 1 {
				t.Fatalf("stats %+v", get().Stats())
			}
			w.Close()
			recs := reopenRecords(t, path)
			if len(recs) != 2 {
				t.Fatalf("%d records survived, want the 2 synced appends", len(recs))
			}
		})
	}
}

// TestDiskCorruptionDetectedAtRecovery injects a silent corruption —
// the append "succeeds" — and checks recovery's checksum scan refuses
// the frame instead of replaying garbage.
func TestDiskCorruptionDetectedAtRecovery(t *testing.T) {
	w, get, path := openFaultyWAL(t, DiskOptions{Schedule: map[int]DiskFault{2: DiskCorrupt}})
	if _, err := w.Append(store.WALCommit, []byte("good record")); err != nil {
		t.Fatal(err)
	}
	// The lie: this append reports success and full durability.
	if _, err := w.Append(store.WALCommit, []byte("silently corrupted")); err != nil {
		t.Fatalf("corrupt append should report success (the storage lied), got %v", err)
	}
	if get().Stats().Corruptions != 1 {
		t.Fatalf("stats %+v", get().Stats())
	}
	w.Close()

	w2, recs, err := store.OpenWAL(path, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(recs) != 1 || string(recs[0].Body) != "good record" {
		t.Fatalf("recovered %d records: %v", len(recs), recs)
	}
	d := w2.Damage()
	if d == nil {
		t.Fatal("corruption left no damage report")
	}
}

// TestDiskFaultDeterminism runs the same seeded workload twice and
// requires identical fault placement and identical surviving logs.
func TestDiskFaultDeterminism(t *testing.T) {
	run := func() (DiskStats, []store.WALRecord) {
		w, get, path := openFaultyWAL(t, DiskOptions{Seed: 7, ShortWriteRate: 0.3})
		for i := 0; i < 20; i++ {
			if _, err := w.Append(store.WALCommit, []byte{byte(i)}); err != nil {
				break // sealed at the first sampled fault
			}
		}
		st := get().Stats()
		w.Close()
		return st, reopenRecords(t, path)
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s1.ShortWrites == 0 {
		t.Fatal("sampling at rate 0.3 over 20 appends injected nothing")
	}
	if len(r1) != len(r2) {
		t.Fatalf("surviving records diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].LSN != r2[i].LSN || string(r1[i].Body) != string(r2[i].Body) {
			t.Fatalf("record %d diverged", i)
		}
	}
}

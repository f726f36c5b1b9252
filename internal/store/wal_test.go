package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"interopdb/internal/object"
)

func openTestWAL(t *testing.T, dir string, opts WALOptions) (*WAL, []WALRecord) {
	t.Helper()
	w, recs, err := OpenWAL(filepath.Join(dir, "wal.log"), opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w, recs
}

func TestWALAppendReopen(t *testing.T) {
	dir := t.TempDir()
	w, recs := openTestWAL(t, dir, WALOptions{})
	if len(recs) != 0 {
		t.Fatalf("fresh log has %d records", len(recs))
	}
	bodies := [][]byte{[]byte("one"), []byte("two"), {}, []byte("four")}
	for i, b := range bodies {
		lsn, err := w.Append(WALCommit, b)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append %d assigned LSN %d", i, lsn)
		}
	}
	if w.LastLSN() != 4 {
		t.Fatalf("LastLSN = %d", w.LastLSN())
	}
	w.Close()

	w2, recs := openTestWAL(t, dir, WALOptions{})
	if len(recs) != len(bodies) {
		t.Fatalf("reopen found %d records, want %d", len(recs), len(bodies))
	}
	for i, r := range recs {
		if r.Kind != WALCommit || r.LSN != uint64(i+1) || !bytes.Equal(r.Body, bodies[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if w2.Damage() != nil {
		t.Fatalf("clean log reports damage: %v", w2.Damage())
	}
	// LSNs continue past the reopened tail.
	lsn, err := w2.Append(WALResolve, []byte("five"))
	if err != nil || lsn != 5 {
		t.Fatalf("post-reopen append: lsn=%d err=%v", lsn, err)
	}
}

// TestWALTornTail cuts the file mid-frame at every possible byte
// length and checks recovery always lands on the longest valid record
// prefix — never a partial record, never a panic.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openTestWAL(t, dir, WALOptions{})
	var ends []int64
	for i := 0; i < 4; i++ {
		if _, err := w.Append(WALCommit, bytes.Repeat([]byte{byte(i)}, 10+i)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Size())
	}
	w.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(len(img)); cut >= int64(walHeaderSize); cut-- {
		wantRecs := 0
		for _, e := range ends {
			if e <= cut {
				wantRecs++
			}
		}
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, recs, err := OpenWAL(filepath.Join(sub, "wal.log"), WALOptions{})
		if err != nil {
			t.Fatalf("cut %d: OpenWAL: %v", cut, err)
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recs), wantRecs)
		}
		tornExactly := false
		for _, e := range ends {
			if e == cut {
				tornExactly = true
			}
		}
		if (w2.Damage() == nil) != tornExactly && cut != int64(walHeaderSize) {
			t.Fatalf("cut %d: damage=%v, frame-aligned=%v", cut, w2.Damage(), tornExactly)
		}
		// The reopened log must be appendable and re-scannable.
		if _, err := w2.Append(WALCommit, []byte("post-recovery")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w2.Close()
		_, recs2, err := OpenWAL(filepath.Join(sub, "wal.log"), WALOptions{})
		if err != nil || len(recs2) != wantRecs+1 {
			t.Fatalf("cut %d: rescan got %d records, err %v", cut, len(recs2), err)
		}
	}
}

// TestWALCorruptTail flips a byte in the LAST record and checks the
// log is cut there; a flip in an EARLIER record must refuse silently
// skipping it (the cut lands at the corruption, dropping what follows,
// and the damage report says so).
func TestWALCorruptTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _ := openTestWAL(t, dir, WALOptions{})
	var ends []int64
	for i := 0; i < 3; i++ {
		if _, err := w.Append(WALCommit, bytes.Repeat([]byte{0xAA}, 20)); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, w.Size())
	}
	w.Close()
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte inside record 2 (0-based byte offset within
	// its frame past the length field).
	corrupt := append([]byte(nil), img...)
	corrupt[ends[1]+10] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatalf("OpenWAL on corrupt: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2 (cut at the corruption)", len(recs))
	}
	d := w2.Damage()
	if d == nil || d.Offset != ends[1] || d.LostBytes != int64(len(img))-ends[1] {
		t.Fatalf("damage report %+v, want offset %d lost %d", d, ends[1], int64(len(img))-ends[1])
	}
	w2.Close()

	// Mid-log corruption: record 1 damaged, records after it intact.
	// The cut still lands AT the corruption — the intact-looking tail is
	// not resynchronised into, because a failed checksum leaves no
	// trustworthy frame length to skip by.
	corrupt = append([]byte(nil), img...)
	corrupt[ends[0]+10] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, recs, err := OpenWAL(path, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("mid-log corruption recovered %d records, want 1", len(recs))
	}
	if d := w3.Damage(); d == nil || d.Offset != ends[0] {
		t.Fatalf("mid-log damage report %+v", d)
	}
	w3.Close()
}

func TestWALRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, []byte("definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(path, WALOptions{}); err == nil {
		t.Fatal("OpenWAL accepted a non-WAL file")
	}
	// And the file must be untouched.
	b, _ := os.ReadFile(path)
	if string(b) != "definitely not a WAL" {
		t.Fatal("OpenWAL modified a foreign file")
	}
}

func TestWALTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, _ := openTestWAL(t, dir, WALOptions{})
	for i := 1; i <= 6; i++ {
		if _, err := w.Append(WALCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateThrough(4); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	// Appends continue with preserved LSNs.
	lsn, err := w.Append(WALCommit, []byte{7})
	if err != nil || lsn != 7 {
		t.Fatalf("append after truncate: lsn=%d err=%v", lsn, err)
	}
	w.Close()
	_, recs := openTestWAL(t, dir, WALOptions{})
	var lsns []uint64
	for _, r := range recs {
		lsns = append(lsns, r.LSN)
	}
	want := []uint64{5, 6, 7}
	if len(lsns) != len(want) {
		t.Fatalf("after truncate: LSNs %v, want %v", lsns, want)
	}
	for i := range want {
		if lsns[i] != want[i] {
			t.Fatalf("after truncate: LSNs %v, want %v", lsns, want)
		}
	}
}

// failFile wraps a WALFile with scripted failures.
type failFile struct {
	WALFile
	failWrite bool
	short     bool
	failSync  bool
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.failWrite {
		return 0, errors.New("injected write error")
	}
	if f.short {
		n := len(p) / 2
		m, err := f.WALFile.Write(p[:n])
		if err != nil {
			return m, err
		}
		return m, nil
	}
	return f.WALFile.Write(p)
}

func (f *failFile) Sync() error {
	if f.failSync {
		return errors.New("injected sync error")
	}
	return f.WALFile.Sync()
}

func TestWALSealsOnWriteFailure(t *testing.T) {
	for _, mode := range []string{"write", "short", "sync"} {
		dir := t.TempDir()
		var ff *failFile
		w, _ := openTestWAL(t, dir, WALOptions{WrapFile: func(f WALFile) WALFile {
			ff = &failFile{WALFile: f}
			return ff
		}})
		if _, err := w.Append(WALCommit, []byte("good")); err != nil {
			t.Fatal(err)
		}
		switch mode {
		case "write":
			ff.failWrite = true
		case "short":
			ff.short = true
		case "sync":
			ff.failSync = true
		}
		if _, err := w.Append(WALCommit, []byte("bad")); err == nil {
			t.Fatalf("%s: append succeeded through failure", mode)
		} else if !IsTransient(err) {
			t.Fatalf("%s: seal error %v does not match ErrUnavailable", mode, err)
		}
		// Sealed: even healthy appends now refuse.
		ff.failWrite, ff.short, ff.failSync = false, false, false
		if _, err := w.Append(WALCommit, []byte("after")); !errors.Is(err, ErrWALSealed) {
			t.Fatalf("%s: post-seal append err = %v", mode, err)
		}
		w.Close()
		// The durable prefix survives: exactly one record.
		_, recs, err := OpenWAL(filepath.Join(dir, "wal.log"), WALOptions{})
		if err != nil {
			t.Fatalf("%s: reopen: %v", mode, err)
		}
		if len(recs) != 1 || string(recs[0].Body) != "good" {
			t.Fatalf("%s: reopened records %v", mode, recs)
		}
	}
}

func TestWALRecordBodies(t *testing.T) {
	attrs := map[string]object.Value{"title": object.Str("x"), "price": object.Real(9.5)}
	op := Effect{Kind: OpInsert, Class: "Item", OID: 3, Attrs: attrs}
	cr := CommitRecord{Member: "db1", Batch: 7, Ops: []Effect{op}}
	b, err := EncodeCommitRecord(cr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCommitRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Member != "db1" || got.Batch != 7 || len(got.Ops) != 1 {
		t.Fatalf("commit round trip: %+v", got)
	}
	if da := got.Ops[0].Attrs; !object.AttrsEqual(da, attrs) {
		t.Fatalf("op attrs changed: %v", da)
	}

	ir := IntentRecord{Members: []string{"db1", "db2"}, Effects: map[string][]Effect{"db1": {op}}}
	ib, err := EncodeIntentRecord(ir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeIntentRecord(ib); err != nil {
		t.Fatal(err)
	}

	rr := ResolveRecord{Batch: 9, Outcome: ResolveCommitted}
	rb, err := EncodeResolveRecord(rr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResolveRecord(rb); err != nil {
		t.Fatal(err)
	}

	bad := []struct {
		kind byte
		body string
	}{
		{WALCommit, ``},
		{WALCommit, `{}`},
		{WALCommit, `{"m":"db1","ops":[{"k":9,"o":1}]}`},
		{WALCommit, `{"m":"db1","ops":[{"k":1,"o":0,"c":"X"}]}`},
		{WALCommit, `{"m":"db1","ops":[{"k":1,"o":1}]}`},
		{WALCommit, `{"m":"db1","ops":[{"k":2,"o":1}]}`},
		{WALIntent, `{"ms":["a","a"]}`},
		{WALIntent, `{"ms":["a"],"eff":{"b":[]}}`},
		{WALResolve, `{"b":0,"out":"committed"}`},
		{WALResolve, `{"b":1,"out":"exploded"}`},
		{99, `{}`},
	}
	for _, c := range bad {
		if _, err := DecodeWALBody(c.kind, []byte(c.body)); err == nil {
			t.Errorf("DecodeWALBody(%d, %q) accepted", c.kind, c.body)
		}
	}
}

// TestCheckpointTornWriteKeepsPrevious pins WriteFileAtomic, which
// writes both checkpoints and tenant manifests: a write that fails half
// way leaves the previous file byte-identical and no tmp file behind.
func TestCheckpointTornWriteKeepsPrevious(t *testing.T) {
	injected := errors.New("injected write error")
	t.Cleanup(func() { writeTmp = (*os.File).Write })
	torn := func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, injected
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.db")
	manifest := filepath.Join(dir, "manifest.json")
	if err := WriteCheckpoint(ckpt, &Checkpoint{LSN: 1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(manifest, []byte(`{"version": 1}`)); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, p := range []string{ckpt, manifest} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		before[p] = b
	}

	writeTmp = torn
	if err := WriteCheckpoint(ckpt, &Checkpoint{LSN: 2}); !errors.Is(err, injected) {
		t.Fatalf("WriteCheckpoint under a torn write: err = %v", err)
	}
	if err := WriteFileAtomic(manifest, []byte(`{"version": 2, "source": {}}`)); !errors.Is(err, injected) {
		t.Fatalf("WriteFileAtomic under a torn write: err = %v", err)
	}
	for p, want := range before {
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s changed by a failed rewrite: %q, want %q", filepath.Base(p), got, want)
		}
		if _, err := os.Stat(p + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s.tmp left behind by a failed rewrite (stat err = %v)", filepath.Base(p), err)
		}
	}
	if c, err := ReadCheckpoint(ckpt); err != nil || c.LSN != 1 {
		t.Errorf("previous checkpoint after a failed rewrite: %+v, %v", c, err)
	}
}

// TestDirSyncFailure pins that a failed directory fsync after a rename
// is reported, not swallowed: WriteCheckpoint returns the error (so the
// caller keeps the WAL prefix the new checkpoint would have made
// redundant), and TruncateThrough seals the log (later appends would
// land in a file whose directory entry may not be on disk). A
// filesystem without directory fsync (EINVAL) is not a failure.
func TestDirSyncFailure(t *testing.T) {
	injected := errors.New("injected dir sync error")
	setFsyncDir := func(err error) {
		fsyncDir = func(*os.File) error { return err }
	}
	t.Cleanup(func() { fsyncDir = (*os.File).Sync })

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "checkpoint.db")
	setFsyncDir(injected)
	if err := WriteCheckpoint(ckpt, &Checkpoint{LSN: 1}); !errors.Is(err, injected) {
		t.Fatalf("WriteCheckpoint under a failing dir fsync: err = %v", err)
	}
	setFsyncDir(syscall.EINVAL)
	if err := WriteCheckpoint(ckpt, &Checkpoint{LSN: 1}); err != nil {
		t.Fatalf("WriteCheckpoint on a filesystem without dir fsync: %v", err)
	}

	w, _ := openTestWAL(t, dir, WALOptions{})
	for i := 1; i <= 3; i++ {
		if _, err := w.Append(WALCommit, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.TruncateThrough(1); err != nil {
		t.Fatalf("TruncateThrough on a filesystem without dir fsync: %v", err)
	}
	setFsyncDir(injected)
	if err := w.TruncateThrough(2); !errors.Is(err, ErrWALSealed) {
		t.Fatalf("TruncateThrough under a failing dir fsync: err = %v, want ErrWALSealed", err)
	}
	setFsyncDir(nil)
	if _, err := w.Append(WALCommit, []byte{4}); !errors.Is(err, ErrWALSealed) {
		t.Fatalf("append after a failed truncate: err = %v, want ErrWALSealed", err)
	}
}

package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
)

// The write-ahead log (DESIGN.md §13). Every committed member-store
// transaction is appended here, and Sync makes it durable before the
// shipping layer reports the batch's outcome, so a restarted node can
// replay `checkpoint + WAL tail` and land on exactly the acknowledged
// pre-crash state.
//
// File layout:
//
//	[8B magic "IDBWAL01"]
//	repeated frames: [4B payload len LE][4B CRC32C(payload) LE][payload]
//	payload: [1B record kind][8B LSN LE][body]
//
// The CRC covers the whole payload (kind, LSN and body), so a torn or
// bit-flipped tail is detected, never replayed. Recovery cuts the log
// at the last frame that verifies; it NEVER resynchronises past a bad
// frame, because a frame that fails its checksum leaves no trustworthy
// length to skip by — everything after the damage is considered lost
// and reported, not silently dropped record-by-record. That cut is what
// lets appends go unsynced: a written-but-unsynced suffix, even one the
// kernel wrote back out of order, recovers as a prefix of the records.
//
// LSNs are assigned by the WAL under its lock, strictly increasing
// across the file's lifetime (TruncateThrough preserves the counter),
// so replay can discard duplicates and checkpoints can name the exact
// prefix they cover.

const (
	walMagic = "IDBWAL01"
	// walHeaderSize is the fixed file header length.
	walHeaderSize = len(walMagic)
	// walFrameOverhead is the per-record framing cost (length + CRC).
	walFrameOverhead = 8
	// walPayloadOverhead is the kind byte plus the LSN.
	walPayloadOverhead = 9
	// walMaxRecord bounds a single record's payload. Nothing legitimate
	// approaches it; the bound keeps a corrupted length field from
	// asking the decoder for gigabytes.
	walMaxRecord = 64 << 20
)

// WAL record kinds.
const (
	// WALCommit records one committed member-store transaction.
	WALCommit byte = 1
	// WALIntent records a routed batch's per-member effects before the
	// first member commits (the cross-member atomicity record).
	WALIntent byte = 2
	// WALResolve closes an intent: committed, aborted or compensated.
	WALResolve byte = 3
)

// crcTable is the Castagnoli polynomial (CRC32C), hardware-accelerated
// on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WALRecord is one decoded log record.
type WALRecord struct {
	Kind byte
	LSN  uint64
	Body []byte
}

// TailDamage describes a torn or corrupted log tail found at open: the
// byte offset of the first frame that failed verification, why, and
// how many trailing bytes were cut. A clean shutdown leaves no damage.
type TailDamage struct {
	Offset    int64
	Reason    string
	LostBytes int64
}

// Error renders the damage report.
func (d *TailDamage) Error() string {
	return fmt.Sprintf("wal: tail damage at offset %d (%s): %d byte(s) cut", d.Offset, d.Reason, d.LostBytes)
}

// ErrWALSealed marks a WAL that hit a write or sync failure and refuses
// further appends: the durable prefix on disk is intact, but nothing
// after the failure can be trusted durable, so the node must restart
// and recover. Matches ErrUnavailable so the shipping layer's fault
// machinery treats an un-logged commit as a member outage.
var ErrWALSealed = fmt.Errorf("write-ahead log sealed after write failure: %w", ErrUnavailable)

// WALFile is the slice of *os.File the WAL needs, factored out so the
// chaos package can interpose disk faults (short writes, fsync errors,
// corruption) behind the same deterministic schedule API as its
// backend faults.
type WALFile interface {
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
}

// SyncPolicy names the WAL's fsync policy. WAL.Sync is the one
// durability point and the commit journal calls it before every
// reported outcome, so SyncAlways is its only value; the type, the
// constant and WALOptions.Sync remain only because the repository
// benchmark's durable twin names them.
type SyncPolicy int

// SyncAlways makes every acknowledged batch durable before its
// acknowledgement: one fsync per batch, however many records it wrote.
const SyncAlways SyncPolicy = 0

// WALOptions configures OpenWAL.
type WALOptions struct {
	// Sync is always SyncAlways; see SyncPolicy.
	Sync SyncPolicy
	// WrapFile, when set, wraps the opened log file before any append —
	// the chaos hook. Recovery scanning happens on the raw bytes, so
	// injected faults only affect new writes.
	WrapFile func(WALFile) WALFile
}

// WAL is an append-only checksummed log. Safe for concurrent use.
type WAL struct {
	mu     sync.Mutex
	f      WALFile
	path   string
	opts   WALOptions
	lsn    uint64 // last assigned LSN
	size   int64  // current valid file size
	synced int64  // file size the last fsync covered
	sealed error  // non-nil once a write/sync failure poisoned the handle
	damage *TailDamage
}

// DecodeWALFrame decodes the first frame of b, returning the record and
// the total frame length consumed. It is a pure function of its input
// and never panics: arbitrary bytes yield either a record or an error
// (the fuzz target pins this). io.ErrUnexpectedEOF marks a frame that
// is merely incomplete — a torn tail — as opposed to one that is
// positively corrupt.
func DecodeWALFrame(b []byte) (WALRecord, int, error) {
	if len(b) < walFrameOverhead {
		return WALRecord{}, 0, io.ErrUnexpectedEOF
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	crc := binary.LittleEndian.Uint32(b[4:8])
	if plen < walPayloadOverhead {
		return WALRecord{}, 0, fmt.Errorf("wal: frame payload length %d below record header size", plen)
	}
	if plen > walMaxRecord {
		return WALRecord{}, 0, fmt.Errorf("wal: frame payload length %d exceeds limit", plen)
	}
	end := walFrameOverhead + int(plen)
	if len(b) < end {
		return WALRecord{}, 0, io.ErrUnexpectedEOF
	}
	payload := b[walFrameOverhead:end]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return WALRecord{}, 0, fmt.Errorf("wal: frame checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	rec := WALRecord{
		Kind: payload[0],
		LSN:  binary.LittleEndian.Uint64(payload[1:9]),
		Body: payload[walPayloadOverhead:],
	}
	return rec, end, nil
}

// encodeWALFrame builds the on-disk frame for one record.
func encodeWALFrame(kind byte, lsn uint64, body []byte) []byte {
	plen := walPayloadOverhead + len(body)
	frame := make([]byte, walFrameOverhead+plen)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(plen))
	payload := frame[walFrameOverhead:]
	payload[0] = kind
	binary.LittleEndian.PutUint64(payload[1:9], lsn)
	copy(payload[walPayloadOverhead:], body)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return frame
}

// ScanWAL decodes every verifiable record of a log image (header
// included), returning the records, the byte length of the valid
// prefix, and a damage report when the file does not end exactly on a
// frame boundary. Pure and panic-free on arbitrary bytes.
func ScanWAL(b []byte) (recs []WALRecord, valid int64, damage *TailDamage) {
	if len(b) == 0 {
		return nil, 0, nil
	}
	if len(b) < walHeaderSize || string(b[:walHeaderSize]) != walMagic {
		return nil, 0, &TailDamage{Offset: 0, Reason: "bad file header", LostBytes: int64(len(b))}
	}
	off := int64(walHeaderSize)
	for off < int64(len(b)) {
		rec, n, err := DecodeWALFrame(b[off:])
		if err != nil {
			reason := "corrupt frame: " + err.Error()
			if errors.Is(err, io.ErrUnexpectedEOF) {
				reason = "torn frame (incomplete write)"
			}
			return recs, off, &TailDamage{Offset: off, Reason: reason, LostBytes: int64(len(b)) - off}
		}
		// Copy the body out of the scanned image so records stay valid
		// after the caller releases or truncates the backing buffer.
		rec.Body = append([]byte(nil), rec.Body...)
		recs = append(recs, rec)
		off += int64(n)
	}
	return recs, off, nil
}

// OpenWAL opens (creating if absent) the log at path, verifies the
// existing contents, cuts any torn or corrupted tail back to the last
// valid record, and returns the surviving records. The cut is recorded
// and queryable via Damage(); it is an expected crash artifact, not an
// open failure. The returned WAL is positioned for appends with its
// LSN counter past every surviving record.
func OpenWAL(path string, opts WALOptions) (*WAL, []WALRecord, error) {
	img, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	recs, valid, damage := ScanWAL(img)
	if damage != nil && damage.Offset == 0 && len(img) > 0 {
		// Not a WAL at all — refuse rather than truncate someone
		// else's file to nothing.
		return nil, nil, fmt.Errorf("wal: %s is not a write-ahead log: %s", path, damage.Reason)
	}

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	if len(img) == 0 {
		if _, err := f.Write([]byte(walMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: write header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync header: %w", err)
		}
		valid = int64(walHeaderSize)
	} else if damage != nil {
		// Cut the tail at the last valid record. The lost suffix was
		// never acknowledged durable (the crash interrupted it), so
		// cutting it restores the invariant "file contents = exactly
		// the acknowledged records".
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync after tail cut: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek: %w", err)
	}

	var lsn uint64
	for _, r := range recs {
		if r.LSN > lsn {
			lsn = r.LSN
		}
	}
	var wf WALFile = f
	if opts.WrapFile != nil {
		wf = opts.WrapFile(f)
	}
	return &WAL{f: wf, path: path, opts: opts, lsn: lsn, size: valid, synced: valid, damage: damage}, recs, nil
}

// Append writes one record and assigns its LSN. It does not fsync:
// the record is durable once a later Sync returns nil. Any write
// failure seals the log, and all future appends fail with
// ErrWALSealed.
func (w *WAL) Append(kind byte, body []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed != nil {
		return 0, w.sealed
	}
	lsn := w.lsn + 1
	frame := encodeWALFrame(kind, lsn, body)
	n, err := w.f.Write(frame)
	if err != nil || n != len(frame) {
		if err == nil {
			err = io.ErrShortWrite
		}
		w.seal(fmt.Errorf("wal: append: %w", err))
		return 0, w.sealed
	}
	w.lsn = lsn
	w.size += int64(len(frame))
	return lsn, nil
}

// seal poisons the handle after a failed write or fsync and cuts the
// file back to the size the last successful fsync covered, so the file
// holds exactly the synced records. If the truncate fails too,
// recovery's scan cuts a torn tail instead; whole unsynced frames
// would survive that case, as they would a crash before any failure.
func (w *WAL) seal(cause error) {
	w.sealed = fmt.Errorf("%w: %v", ErrWALSealed, cause)
	_ = w.f.Truncate(w.synced)
	w.size = w.synced
}

// Sync is the log's durability point: it fsyncs the records appended
// since the last sync and is a no-op when there are none. A failed
// fsync seals the log (see seal). A sealed log reports its seal, which
// is how the graceful drain learns whether the log is still writable
// before its final checkpoint.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed != nil {
		return w.sealed
	}
	if w.synced == w.size {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.seal(fmt.Errorf("wal: sync: %w", err))
		return w.sealed
	}
	w.synced = w.size
	return nil
}

// LastLSN returns the LSN of the last appended record (0 when the log
// is empty). The commit journal syncs before it releases the engine
// lock, so a caller holding that lock reads a synced LSN.
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// Size returns the current valid file size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Damage returns the tail-damage report from open time, nil when the
// log opened clean.
func (w *WAL) Damage() *TailDamage { return w.damage }

// Sealed returns the sealing error, nil while the log accepts appends.
func (w *WAL) Sealed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealed
}

// Close syncs and closes the file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	var err error
	if w.sealed == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.sealed == nil {
		w.sealed = fmt.Errorf("wal: closed: %w", ErrUnavailable)
	}
	return err
}

// TruncateThrough drops every record with LSN <= through — called after
// a checkpoint has made that prefix redundant. The rewrite is atomic
// (tmp + fsync + rename), the LSN counter is preserved, and the handle
// is reopened on the new file. Records past `through` survive byte-
// for-byte.
func (w *WAL) TruncateThrough(through uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed != nil {
		return w.sealed
	}
	if err := w.f.Sync(); err != nil {
		w.seal(fmt.Errorf("wal: sync before truncate: %w", err))
		return w.sealed
	}
	w.synced = w.size
	img, err := os.ReadFile(w.path)
	if err != nil {
		return fmt.Errorf("wal: reread for truncate: %w", err)
	}
	recs, _, damage := ScanWAL(img)
	if damage != nil {
		// The on-disk image should be exactly what we appended; damage
		// here means the storage is lying to us. Keep the log as-is.
		return fmt.Errorf("wal: refusing truncate, %s", damage.Error())
	}

	tmp := w.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate tmp: %w", err)
	}
	size := int64(walHeaderSize)
	writeErr := func() error {
		if _, err := tf.Write([]byte(walMagic)); err != nil {
			return err
		}
		for _, r := range recs {
			if r.LSN <= through {
				continue
			}
			frame := encodeWALFrame(r.Kind, r.LSN, r.Body)
			if _, err := tf.Write(frame); err != nil {
				return err
			}
			size += int64(len(frame))
		}
		return tf.Sync()
	}()
	if writeErr != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: truncate rewrite: %w", writeErr)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: truncate close: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: truncate rename: %w", err)
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		w.sealed = fmt.Errorf("%w: sync dir after truncate: %v", ErrWALSealed, err)
		return w.sealed
	}

	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		w.sealed = fmt.Errorf("%w: reopen after truncate: %v", ErrWALSealed, err)
		return w.sealed
	}
	if _, err := nf.Seek(size, io.SeekStart); err != nil {
		nf.Close()
		w.sealed = fmt.Errorf("%w: seek after truncate: %v", ErrWALSealed, err)
		return w.sealed
	}
	old := w.f
	var wf WALFile = nf
	if w.opts.WrapFile != nil {
		wf = w.opts.WrapFile(nf)
	}
	w.f = wf
	w.size, w.synced = size, size
	old.Close()
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry
// is durable. A filesystem without directory fsync (EINVAL, ENOTSUP) is
// not an error; any other failure is, because the rename may not
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := fsyncDir(d); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// fsyncDir is syncDir's fsync, a variable so a test can make it fail.
var fsyncDir = (*os.File).Sync

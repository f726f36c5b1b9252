package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"interopdb/internal/object"
)

// Checkpoints bound WAL replay: a checkpoint is a consistent snapshot
// of every member store's extent PLUS the federation's derived
// artifacts (serialized derivation, entailment memo, plan metadata —
// opaque sections filled by the layers that own those types), stamped
// with the WAL LSN it covers. Recovery restores the checkpoint and
// replays only the records after its LSN.
//
// File layout: [8B magic "IDBCKPT1"][4B payload len LE][4B CRC32C LE]
// [JSON payload]. The write is atomic — tmp file, fsync, rename — so a
// crash mid-checkpoint leaves the previous checkpoint intact; the
// rename is the commit point.

const checkpointMagic = "IDBCKPT1"

// CheckpointObject is one stored object in a member snapshot.
type CheckpointObject struct {
	OID   uint64                     `json:"oid"`
	Attrs map[string]json.RawMessage `json:"attrs,omitempty"`
}

// ClassExtent is one class's direct instances, in insertion order —
// the order Extent serves, which downstream integration and query
// results observe.
type ClassExtent struct {
	Class   string             `json:"class"`
	Objects []CheckpointObject `json:"objects"`
}

// MemberCheckpoint is one member store's full snapshot.
type MemberCheckpoint struct {
	Name string `json:"name"`
	// NextOID preserves the allocation cursor exactly, including OIDs
	// consumed by staged-then-aborted transactions: a recovered store
	// must never re-issue an OID the pre-crash store handed out.
	NextOID uint64        `json:"next_oid"`
	Classes []ClassExtent `json:"classes"`
}

// Checkpoint is the full persisted state of a federation node.
type Checkpoint struct {
	Version int `json:"version"`
	// LSN is the last WAL record the snapshot includes; replay starts
	// after it.
	LSN     uint64             `json:"lsn"`
	Members []MemberCheckpoint `json:"members"`
	// Derived holds the serialized derived artifacts, keyed by section
	// name ("derivation", "memo", "plans"). The store layer treats them
	// as opaque: the packages that own the types fill and consume them.
	Derived map[string]json.RawMessage `json:"derived,omitempty"`
}

// checkpointVersion is the current format version.
const checkpointVersion = 1

// SnapshotStore captures a member store's snapshot: every direct class
// extent in insertion order, attribute values through the kind-tagged
// codec, and the OID allocation cursor.
func SnapshotStore(s *Store) (MemberCheckpoint, error) {
	classes := make([]string, 0, len(s.byClass))
	for cn, oids := range s.byClass {
		if len(oids) > 0 {
			classes = append(classes, cn)
		}
	}
	sort.Strings(classes)
	mc := MemberCheckpoint{Name: s.Name(), NextOID: uint64(s.nextOID)}
	for _, cn := range classes {
		ext := ClassExtent{Class: cn, Objects: make([]CheckpointObject, 0, len(s.byClass[cn]))}
		for _, o := range s.byClass[cn] {
			attrs, err := object.MarshalAttrs(o.attrs)
			if err != nil {
				return MemberCheckpoint{}, fmt.Errorf("checkpoint %s: %s%s: %w", s.Name(), cn, o.oid, err)
			}
			ext.Objects = append(ext.Objects, CheckpointObject{OID: uint64(o.oid), Attrs: attrs})
		}
		mc.Classes = append(mc.Classes, ext)
	}
	return mc, nil
}

// reset empties the store's object state, keeping schema and constants.
func (s *Store) reset() {
	s.objs = make(map[object.OID]*Obj)
	s.byClass = make(map[string][]*Obj)
	s.nextOID = 1
	for _, k := range s.cons.keys {
		k.count, k.dups = map[string]int{}, 0
	}
}

// RestoreInto replaces the store's contents with the snapshot. The
// store must be built over the same schema the snapshot was taken from
// (class and attribute names are validated; a mismatch aborts with the
// store emptied rather than half-restored — the caller discards it).
// Constraint enforcement is intentionally skipped: the snapshot is a
// copy of a state every constraint already validated.
func (mc MemberCheckpoint) RestoreInto(s *Store) error {
	if mc.Name != s.Name() {
		return fmt.Errorf("restore: snapshot of %s cannot restore into store %s", mc.Name, s.Name())
	}
	s.reset()
	for _, ext := range mc.Classes {
		for _, co := range ext.Objects {
			attrs, err := object.UnmarshalAttrs(co.Attrs)
			if err != nil {
				s.reset()
				return fmt.Errorf("restore %s: %s#%d: %w", mc.Name, ext.Class, co.OID, err)
			}
			if err := s.validateAttrs(ext.Class, attrs); err != nil {
				s.reset()
				return fmt.Errorf("restore %s: %w", mc.Name, err)
			}
			oid := object.OID(co.OID)
			if _, err := s.insertReserved(oid, ext.Class, attrs); err != nil {
				s.reset()
				return fmt.Errorf("restore %s: %w", mc.Name, err)
			}
			if oid >= s.nextOID {
				s.nextOID = oid + 1
			}
		}
	}
	if mc.NextOID > uint64(s.nextOID) {
		s.nextOID = object.OID(mc.NextOID)
	}
	return nil
}

// WriteCheckpoint writes the checkpoint atomically (WriteFileAtomic):
// readers see either the old checkpoint or the new one, never a torn mix.
func WriteCheckpoint(path string, c *Checkpoint) error {
	cp := *c
	cp.Version = checkpointVersion
	payload, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, len(checkpointMagic)+8+len(payload))
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Checksum(payload, crcTable))
	copy(buf[16:], payload)
	if err := WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic replaces the file at path with data: write a tmp file
// beside it, fsync it, rename it over path, fsync the directory. A crash
// or an error at any step leaves either the previous file or the new
// one, never an empty or torn one; on error before the rename the tmp
// file is removed.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := writeTmp(f, data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("rename: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// writeTmp is WriteFileAtomic's tmp-file write, a variable so a test can
// make it fail.
var writeTmp = (*os.File).Write

// ErrNoCheckpoint reports that no checkpoint exists yet (a first boot,
// or a node that crashed before its first checkpoint).
var ErrNoCheckpoint = errors.New("no checkpoint")

// ReadCheckpoint reads and verifies a checkpoint written by
// WriteCheckpoint. A missing file returns ErrNoCheckpoint; a damaged
// one returns a hard error, because unlike a WAL tail a checkpoint is
// written atomically — damage means the storage itself lied.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(buf) < 16 || string(buf[:8]) != checkpointMagic {
		return nil, fmt.Errorf("checkpoint: %s: bad header", path)
	}
	plen := binary.LittleEndian.Uint32(buf[8:12])
	crc := binary.LittleEndian.Uint32(buf[12:16])
	if int64(plen) != int64(len(buf)-16) {
		return nil, fmt.Errorf("checkpoint: %s: length mismatch (header %d, file %d)", path, plen, len(buf)-16)
	}
	payload := buf[16:]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("checkpoint: %s: checksum mismatch (stored %08x, computed %08x)", path, crc, got)
	}
	var c Checkpoint
	if err := json.Unmarshal(payload, &c); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: decode: %w", path, err)
	}
	if c.Version != checkpointVersion {
		return nil, fmt.Errorf("checkpoint: %s: unsupported version %d", path, c.Version)
	}
	return &c, nil
}

// Member returns the named member's snapshot, or false.
func (c *Checkpoint) Member(name string) (MemberCheckpoint, bool) {
	for _, m := range c.Members {
		if m.Name == name {
			return m, true
		}
	}
	return MemberCheckpoint{}, false
}

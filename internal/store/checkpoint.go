package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
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
// File layout: [8B magic][4B payload len LE][4B CRC32C LE][payload].
// The write is atomic — tmp file, fsync, rename — so a crash
// mid-checkpoint leaves the previous checkpoint intact; the rename is
// the commit point. WriteCheckpoint writes magic "IDBCKPT2", whose
// payload is binary, built on internal/object's value codec:
//
//	payload [uvarint lsn][uvarint nmembers][member...]
//	        [uvarint nsections][(str name, bytes section)...]  names sorted
//	member  [str name][uvarint next oid][uvarint nclasses][class...]
//	class   [str class][uvarint nobjects][(uvarint oid, attrs)...]
//
// attrs is object.AppendAttrs' canonical map; a derived section is
// carried verbatim, length-prefixed. ReadCheckpoint also reads magic
// "IDBCKPT1", the JSON payload earlier versions wrote.

const (
	checkpointMagic     = "IDBCKPT2"
	checkpointMagicJSON = "IDBCKPT1"
)

// CheckpointObject is one stored object in a member snapshot. Attrs
// holds decoded values; the JSON methods render and read the
// kind-tagged form the IDBCKPT1 payload used.
type CheckpointObject struct {
	OID   uint64
	Attrs map[string]object.Value
}

// checkpointObjectJSON is a CheckpointObject's JSON form.
type checkpointObjectJSON struct {
	OID   uint64                     `json:"oid"`
	Attrs map[string]json.RawMessage `json:"attrs,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (o CheckpointObject) MarshalJSON() ([]byte, error) {
	attrs, err := object.MarshalAttrs(o.Attrs)
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpointObjectJSON{OID: o.OID, Attrs: attrs})
}

// UnmarshalJSON implements json.Unmarshaler.
func (o *CheckpointObject) UnmarshalJSON(b []byte) error {
	var j checkpointObjectJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	attrs, err := object.UnmarshalAttrs(j.Attrs)
	if err != nil {
		return fmt.Errorf("object #%d: %w", j.OID, err)
	}
	*o = CheckpointObject{OID: j.OID, Attrs: attrs}
	return nil
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
	// Version is the payload format read: 1 for JSON, 2 for binary.
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

// The payload format versions: checkpointVersion is the one
// WriteCheckpoint writes, checkpointVersionJSON the IDBCKPT1 one.
const (
	checkpointVersion     = 2
	checkpointVersionJSON = 1
)

// SnapshotStore captures a member store's snapshot: every direct class
// extent in insertion order, each object's attribute map copied (its
// values are immutable), and the OID allocation cursor. It encodes
// nothing, so a capture under the engine's read lock is cheap;
// WriteCheckpoint encodes after the lock is released.
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
			ext.Objects = append(ext.Objects, CheckpointObject{OID: uint64(o.oid), Attrs: maps.Clone(o.attrs)})
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
			if err := s.validateAttrs(ext.Class, co.Attrs); err != nil {
				s.reset()
				return fmt.Errorf("restore %s: %w", mc.Name, err)
			}
			oid := object.OID(co.OID)
			if _, err := s.insertReserved(oid, ext.Class, co.Attrs); err != nil {
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
	buf, err := encodeCheckpoint(c)
	if err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	if err := WriteFileAtomic(path, buf); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// encodeCheckpoint renders the whole IDBCKPT2 file: header, then the
// binary payload.
func encodeCheckpoint(c *Checkpoint) ([]byte, error) {
	buf := append(make([]byte, 0, 64<<10), checkpointMagic...)
	buf = append(buf, make([]byte, 8)...) // length and CRC, filled in below
	buf = binary.AppendUvarint(buf, c.LSN)
	buf = binary.AppendUvarint(buf, uint64(len(c.Members)))
	for _, m := range c.Members {
		buf = object.AppendString(buf, m.Name)
		buf = binary.AppendUvarint(buf, m.NextOID)
		buf = binary.AppendUvarint(buf, uint64(len(m.Classes)))
		for _, ext := range m.Classes {
			buf = object.AppendString(buf, ext.Class)
			buf = binary.AppendUvarint(buf, uint64(len(ext.Objects)))
			for _, o := range ext.Objects {
				buf = binary.AppendUvarint(buf, o.OID)
				var err error
				if buf, err = object.AppendAttrs(buf, o.Attrs); err != nil {
					return nil, fmt.Errorf("%s: %s#%d: %w", m.Name, ext.Class, o.OID, err)
				}
			}
		}
	}
	names := make([]string, 0, len(c.Derived))
	for n := range c.Derived {
		names = append(names, n)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = object.AppendString(buf, n)
		buf = object.AppendString(buf, string(c.Derived[n]))
	}
	payload := buf[16:]
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.Checksum(payload, crcTable))
	return buf, nil
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
// WriteCheckpoint, or by an earlier version's (IDBCKPT1). A missing
// file returns ErrNoCheckpoint; a damaged one returns a hard error,
// because unlike a WAL tail a checkpoint is written atomically —
// damage means the storage itself lied.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, ErrNoCheckpoint
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	c, err := decodeCheckpoint(buf)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return c, nil
}

// decodeCheckpoint verifies a checkpoint file's header and CRC and
// decodes its payload by the magic.
func decodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("bad header")
	}
	magic := string(buf[:8])
	if magic != checkpointMagic && magic != checkpointMagicJSON {
		return nil, fmt.Errorf("bad header")
	}
	plen := binary.LittleEndian.Uint32(buf[8:12])
	crc := binary.LittleEndian.Uint32(buf[12:16])
	if int64(plen) != int64(len(buf)-16) {
		return nil, fmt.Errorf("length mismatch (header %d, file %d)", plen, len(buf)-16)
	}
	payload := buf[16:]
	if got := crc32.Checksum(payload, crcTable); got != crc {
		return nil, fmt.Errorf("checksum mismatch (stored %08x, computed %08x)", crc, got)
	}
	if magic == checkpointMagicJSON {
		var c Checkpoint
		if err := json.Unmarshal(payload, &c); err != nil {
			return nil, fmt.Errorf("decode: %w", err)
		}
		if c.Version != checkpointVersionJSON {
			return nil, fmt.Errorf("unsupported version %d", c.Version)
		}
		return &c, nil
	}
	c := &Checkpoint{Version: checkpointVersion}
	r := object.NewReader(payload)
	c.LSN = r.Uvarint()
	for n := r.Count(); n > 0 && r.Err() == nil; n-- {
		m := MemberCheckpoint{Name: r.String(), NextOID: r.Uvarint()}
		for nc := r.Count(); nc > 0 && r.Err() == nil; nc-- {
			ext := ClassExtent{Class: r.String()}
			for no := r.Count(); no > 0 && r.Err() == nil; no-- {
				ext.Objects = append(ext.Objects, CheckpointObject{OID: r.Uvarint(), Attrs: r.Attrs()})
			}
			m.Classes = append(m.Classes, ext)
		}
		c.Members = append(c.Members, m)
	}
	prev := ""
	for i, n := 0, r.Count(); i < n && r.Err() == nil; i++ {
		name := r.String()
		if i > 0 && name <= prev {
			r.Fail(fmt.Errorf("derived section %q out of order", name))
		}
		if c.Derived == nil {
			c.Derived = map[string]json.RawMessage{}
		}
		c.Derived[name] = r.Bytes()
		prev = name
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return c, nil
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

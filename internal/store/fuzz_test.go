package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"interopdb/internal/object"
)

// FuzzWALDecode holds the WAL decoders to the recovery contract on
// arbitrary bytes: never panic, never claim more valid prefix than
// verifies, and for every frame the scan accepts, the body decoder must
// be panic-free too. A body it accepts reaches a fixpoint: re-encoding
// the decoded record decodes to an equal record, and that encoding is
// byte-stable (a first decode may canonicalise — set elements sort, an
// empty map drops — but a second round trip changes nothing). Seeds
// cover each record kind in both body formats, the empty log, torn
// tails and flipped bytes, plus every record of the root package's
// JSON and binary WAL goldens; the corpus under testdata/fuzz extends
// them.
func FuzzWALDecode(f *testing.F) {
	frame := func(kind byte, lsn uint64, body []byte) []byte {
		return encodeWALFrame(kind, lsn, body)
	}
	log := func(frames ...[]byte) []byte {
		b := []byte(walMagic)
		for _, fr := range frames {
			b = append(b, fr...)
		}
		return b
	}
	commit := []byte(`{"m":"db1","b":1,"ops":[{"k":1,"c":"Item","o":3,"a":{"title":{"t":"str","s":"x"}}}]}`)
	intent := []byte(`{"ms":["db1","db2"],"eff":{"db1":[{"k":3,"c":"Item","o":2}]}}`)
	resolve := []byte(`{"b":1,"out":"committed"}`)

	f.Add([]byte{})
	f.Add([]byte(walMagic))
	f.Add(log(frame(WALCommit, 1, commit)))
	f.Add(log(frame(WALIntent, 1, intent), frame(WALCommit, 2, commit), frame(WALResolve, 3, resolve)))
	f.Add(log(frame(WALCommit, 1, commit))[:len(walMagic)+10]) // torn mid-frame
	f.Add(log(frame(99, 7, []byte("opaque body"))))
	corrupted := log(frame(WALCommit, 1, commit))
	corrupted[len(corrupted)-3] ^= 0xFF
	f.Add(corrupted)
	f.Add([]byte("IDBWAL99 not actually a log"))
	f.Add(log(bytes.Repeat([]byte{0xFF}, 32)))
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wal", "figure1.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	recs, _, _ := ScanWAL(golden)
	for _, r := range recs {
		f.Add(log(frame(r.Kind, r.LSN, r.Body)))
	}
	op := Effect{Kind: OpUpdate, OID: 3, Attrs: map[string]object.Value{"title": object.Str("x")},
		Prev: map[string]object.Value{"title": object.NewSet(object.Real(1.5), object.Ref{DB: "db2", OID: 9})}}
	bcommit, err := EncodeCommitRecord(CommitRecord{Member: "db1", Batch: 1, Ops: []Effect{op}})
	if err != nil {
		f.Fatal(err)
	}
	bintent, err := EncodeIntentRecord(IntentRecord{Members: []string{"db1", "db2"}, Effects: map[string][]Effect{"db1": {op}, "db2": nil}})
	if err != nil {
		f.Fatal(err)
	}
	bresolve, err := EncodeResolveRecord(ResolveRecord{Batch: 1, Outcome: ResolveCompensated})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log(frame(WALIntent, 1, bintent), frame(WALCommit, 2, bcommit), frame(WALResolve, 3, bresolve)))
	f.Add(log(frame(WALCommit, 1, commit), frame(WALCommit, 2, bcommit))) // JSON, then binary
	bgolden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wal", "figure1-binary.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bgolden)
	brecs, _, _ := ScanWAL(bgolden)
	for _, r := range brecs {
		f.Add(log(frame(r.Kind, r.LSN, r.Body)))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid, damage := ScanWAL(data)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		if len(data) > 0 && damage == nil && valid != int64(len(data)) {
			t.Fatalf("no damage reported but valid prefix %d < %d", valid, len(data))
		}
		if damage != nil && damage.Offset+damage.LostBytes != int64(len(data)) {
			t.Fatalf("damage accounting: offset %d + lost %d != %d", damage.Offset, damage.LostBytes, len(data))
		}
		// Every accepted record must re-verify frame-by-frame from its
		// own encoding, and its body must decode without panicking.
		for _, r := range recs {
			re, n, err := DecodeWALFrame(encodeWALFrame(r.Kind, r.LSN, r.Body))
			if err != nil || n != walFrameOverhead+walPayloadOverhead+len(r.Body) {
				t.Fatalf("re-encode of accepted record failed: %v", err)
			}
			if re.Kind != r.Kind || re.LSN != r.LSN || !bytes.Equal(re.Body, r.Body) {
				t.Fatalf("re-encode round trip changed the record")
			}
			rec, err := DecodeWALBody(r.Kind, r.Body)
			if err != nil {
				continue
			}
			enc := mustEncode(t, rec)
			rec2, err := DecodeWALBody(r.Kind, enc)
			if err != nil {
				t.Fatalf("re-decoding the encoding of an accepted body failed: %v\nbody %s\nenc  %s", err, r.Body, enc)
			}
			if !recordsEqual(rec, rec2) {
				t.Fatalf("round trip is not a fixpoint:\nbody %s\nenc  %s", r.Body, enc)
			}
			if enc2 := mustEncode(t, rec2); !bytes.Equal(enc2, enc) {
				t.Fatalf("encoding is not byte-stable:\n%s\n%s", enc, enc2)
			}
		}
		// The truncation point must itself be a clean log prefix.
		recs2, valid2, damage2 := ScanWAL(data[:valid])
		if damage2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("valid prefix does not rescan clean: %v", damage2)
		}
	})
}

// recordsEqual compares decoded record bodies by value.
func recordsEqual(a, b any) bool {
	switch x := a.(type) {
	case CommitRecord:
		y := b.(CommitRecord)
		return x.Member == y.Member && x.Batch == y.Batch && effectsEqual(x.Ops, y.Ops)
	case IntentRecord:
		y := b.(IntentRecord)
		if !slices.Equal(x.Members, y.Members) || len(x.Effects) != len(y.Effects) {
			return false
		}
		for m, effs := range x.Effects {
			if other, ok := y.Effects[m]; !ok || !effectsEqual(effs, other) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// FuzzCheckpointDecode holds the checkpoint decoder to the same
// contract on arbitrary payloads behind a valid header and CRC, under
// either magic: an error or a checkpoint, never a panic, and no
// allocation sized by a count the payload does not back. An accepted
// IDBCKPT2 payload is canonical: it re-encodes to the same file, byte
// for byte. Seeds are a store snapshot with derived sections, an empty
// checkpoint, the root package's v1 golden, and hostile counts.
func FuzzCheckpointDecode(f *testing.F) {
	file := func(magic string, payload []byte) []byte {
		b := append([]byte(magic), make([]byte, 8)...)
		binary.LittleEndian.PutUint32(b[8:12], uint32(len(payload)))
		binary.LittleEndian.PutUint32(b[12:16], crc32.Checksum(payload, crcTable))
		return append(b, payload...)
	}
	s := New(tinyDB(f, "M1"), nil)
	s.MustInsert("Thing", map[string]object.Value{"v": object.Int(-3), "tag": object.Str("a")})
	s.MustInsert("Thing", map[string]object.Value{"v": object.Int(1 << 40)})
	mc, err := SnapshotStore(s)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range []*Checkpoint{
		{LSN: 7, Members: []MemberCheckpoint{mc}, Derived: map[string]json.RawMessage{"memo": []byte(`{"v":1}`), "plans": nil}},
		{},
	} {
		enc, err := encodeCheckpoint(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, enc[16:])
	}
	v1, err := os.ReadFile(filepath.Join("..", "..", "testdata", "checkpoint", "figure1-v1.db"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, v1[16:])
	f.Add(false, []byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})       // hostile member count
	f.Add(false, []byte{0, 1, 2, 'M', '1', 1, 1, 1, 'T', 0x7F}) // hostile object count

	f.Fuzz(func(t *testing.T, v1 bool, payload []byte) {
		magic := checkpointMagic
		if v1 {
			magic = checkpointMagicJSON
		}
		buf := file(magic, payload)
		c, err := decodeCheckpoint(buf)
		if err != nil || v1 {
			return
		}
		re, err := encodeCheckpoint(c)
		if err != nil {
			t.Fatalf("re-encoding an accepted checkpoint failed: %v", err)
		}
		if !bytes.Equal(re, buf) {
			t.Fatalf("accepted payload does not re-encode byte-identically:\n%x\n%x", buf, re)
		}
	})
}

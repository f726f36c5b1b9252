package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzWALDecode holds the WAL decoders to the recovery contract on
// arbitrary bytes: never panic, never claim more valid prefix than
// verifies, and for every frame the scan accepts, the body decoder must
// be panic-free too. A body it accepts reaches a fixpoint: re-encoding
// the decoded record decodes to an equal record, and that encoding is
// byte-stable (a first decode may canonicalise — set elements sort, an
// empty map drops — but a second round trip changes nothing). Seeds
// cover each record kind, the empty log, torn tails and flipped bytes,
// plus every record of the root package's WAL golden; the corpus under
// testdata/fuzz extends them.
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

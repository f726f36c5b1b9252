package wire

import (
	"bytes"
	"testing"
)

// FuzzFrameDecode holds DecodeFrame to the transport contract on
// arbitrary bytes: never panic, never accept a corrupt frame, and every
// accepted frame must re-encode to exactly the bytes consumed. Seeds
// cover a valid frame, truncations at each boundary, a flipped CRC, a
// hostile length and a sub-minimum length; the committed corpus under
// testdata/fuzz extends them (following FuzzWALDecode).
func FuzzFrameDecode(f *testing.F) {
	valid := AppendFrame(nil, OpQuery, 42, appendQueryReq(nil, "main", "select title from Item"))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:4])               // torn mid-header
	f.Add(valid[:frameOverhead+3]) // torn mid-payload
	f.Add(append([]byte{}, valid...)[:len(valid)-1])
	flipped := append([]byte{}, valid...)
	flipped[5] ^= 0xFF // CRC byte
	f.Add(flipped)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}) // hostile length
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})    // length below payload header
	f.Add(AppendFrame(valid, OpTx, 43, nil))          // two frames back to back

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := DecodeFrame(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("error with nonzero consumed length %d", n)
			}
			return
		}
		if n < frameOverhead+payloadOverhead || n > len(data) {
			t.Fatalf("consumed %d out of range [%d,%d]", n, frameOverhead+payloadOverhead, len(data))
		}
		// An accepted frame must re-encode byte-identically: the format
		// has one canonical encoding per (op, id, body).
		re := AppendFrame(nil, fr.Op, fr.ID, fr.Body)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode of accepted frame differs from input prefix")
		}
		// The streaming reader must agree with the pure decoder.
		var buf []byte
		fr2, err2 := readFrameInto(bytes.NewReader(data), &buf, nil)
		if err2 != nil {
			t.Fatalf("DecodeFrame accepted but readFrameInto rejected: %v", err2)
		}
		if fr2.Op != fr.Op || fr2.ID != fr.ID || !bytes.Equal(fr2.Body, fr.Body) {
			t.Fatalf("streaming decode disagrees with pure decode")
		}
		// Flipping any single payload byte must be caught by the CRC.
		mut := append([]byte{}, data[:n]...)
		mut[frameOverhead] ^= 0x01
		if _, _, err := DecodeFrame(mut); err == nil && mut[frameOverhead] != data[frameOverhead] {
			t.Fatalf("flipped payload byte still accepted")
		}
	})
}

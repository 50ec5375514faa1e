package service

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzStoreEntryDecode hammers the on-disk entry parser with truncated,
// bit-flipped and adversarial inputs. The invariants the store's safety
// rests on:
//
//   - decodeEntry never panics, whatever the bytes (a corrupt file must
//     quarantine, not crash the daemon);
//   - a successful decode is exact: re-encoding the decoded entry
//     reproduces the input byte-for-byte, so any accepted file is one the
//     encoder could have written (framing, lengths and CRCs all agree);
//   - flipping any payload bit of a valid encoding must fail decoding —
//     the CRCs actually protect the payload.
func FuzzStoreEntryDecode(f *testing.F) {
	hash := strings.Repeat("0123456789abcdef", 4)
	valid := encodeEntry(hash, Entry{
		Result: []byte(`{"spec":{"nodes":16},"mean_us":101.133}`),
		Trace:  []byte(`{"traceEvents":[]}`),
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // truncated payload
	f.Add(valid[:20])           // truncated header
	f.Add([]byte(""))
	f.Add([]byte("gmstore2\n"))
	f.Add(encodeEntry(hash, Entry{}))
	f.Add([]byte("gmstore2 " + hash + " 1 4294967295 4294967295 00000000 00000000\n"))
	f.Add(encodeEntryAt(hash, 0, Entry{Result: []byte(`{}`)})) // an epoch verifyEntry refuses
	bitflip := bytes.Clone(valid)
	bitflip[len(bitflip)-2] ^= 0x10
	f.Add(bitflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		claimed, epoch, e, err := decodeEntry(data)
		if err != nil {
			return
		}
		if !validHash(claimed) {
			t.Fatalf("decode accepted malformed content address %q", claimed)
		}
		if !bytes.Equal(encodeEntryAt(claimed, epoch, e), data) {
			t.Fatalf("decode/encode not the identity on accepted input %q", data)
		}
		// The CRCs must catch a payload bit flip: the final byte of the
		// file is always payload when any payload exists.
		if len(e.Result)+len(e.Trace) > 0 {
			mut := bytes.Clone(data)
			mut[len(mut)-1] ^= 0x01
			if _, _, _, err := decodeEntry(mut); err == nil {
				t.Fatalf("payload bit flip decoded cleanly")
			}
		}
	})
}

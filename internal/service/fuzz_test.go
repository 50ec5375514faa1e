package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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

// FuzzSubmitBody holds the body index to what it memoizes: whatever the
// bytes, POSTing them twice to one server and once to a fresh one give the
// same status, Content-Type and body — the index never answers differently
// from the full path — and the repeat is X-Cache hit exactly when the first
// reply was 200.
func FuzzSubmitBody(f *testing.F) {
	f.Add([]byte(`{"nodes":16,"fault_plan":"flap","seed":7,"warmup":5,"iters":10}`))
	f.Add([]byte(`{"iters":10,"warmup":5,"seed":7,"fault_plan":"flap","nodes":16}`))
	f.Add([]byte(`{"Nodes":16,"FAULT_PLAN":" Flap ","Seed":7,"Warmup":5,"Iters":10}`))
	f.Add([]byte("{\n  \"nodes\": 16,\n  \"fault_plan\": \"flap\"\n}\n"))
	f.Add([]byte(`{"nodes":16,"nic":"LANai 4.3","alg":"GB","dim":3}`))
	f.Add([]byte(`{"nodes":16,"bogus":1}`))
	f.Add([]byte(`{"nodes":4}{"nodes":5}`))
	f.Add([]byte(`{"nodes":4} trailing`))
	f.Add([]byte(`{"nodes":1}`))
	f.Add([]byte(``))
	f.Add(append(bytes.Repeat([]byte(" "), maxSpecBytes), `{"nodes":4}`...))

	serve := func(h http.Handler, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/runs", bytes.NewReader(body)))
		return w
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		twice := newTestServer(t, Config{Workers: 1, exec: echoExec})
		defer drainClose(t, twice)
		once := newTestServer(t, Config{Workers: 1, exec: echoExec})
		defer drainClose(t, once)

		first := serve(twice.Handler(), body)
		repeat := serve(twice.Handler(), body)
		fresh := serve(once.Handler(), body)
		if repeat.Code != fresh.Code || repeat.Body.String() != fresh.Body.String() ||
			repeat.Header().Get("Content-Type") != fresh.Header().Get("Content-Type") {
			t.Fatalf("repeat answered %d %q (%s), a fresh server %d %q (%s)",
				repeat.Code, repeat.Body, repeat.Header().Get("Content-Type"),
				fresh.Code, fresh.Body, fresh.Header().Get("Content-Type"))
		}
		if hit := repeat.Header().Get("X-Cache") == "hit"; hit != (first.Code == http.StatusOK) {
			t.Fatalf("first reply %d, repeat X-Cache %q", first.Code, repeat.Header().Get("X-Cache"))
		}
	})
}

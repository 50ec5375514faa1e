package network

import "testing"

// TestLinkStreamStable: the per-link stream derivation is a fixed function
// of (seed, link) — different links and different seeds give different
// streams, the same pair gives the same stream.
func TestLinkStreamStable(t *testing.T) {
	a1 := LinkStream(7, 3).Int63()
	a2 := LinkStream(7, 3).Int63()
	if a1 != a2 {
		t.Fatalf("same (seed, link) gave different streams: %d vs %d", a1, a2)
	}
	if LinkStream(7, 4).Int63() == a1 {
		t.Fatal("adjacent links share a stream")
	}
	if LinkStream(8, 3).Int63() == a1 {
		t.Fatal("adjacent seeds share a stream")
	}
}

// TestNICLinkIDs: every attached NIC reports a distinct (tx, rx) pair and
// NumLinks covers them all.
func TestNICLinkIDs(t *testing.T) {
	tn := newTestNet(4, DefaultLinkParams(), DefaultSwitchParams(4))
	seen := make(map[LinkID]bool)
	for i := 0; i < 4; i++ {
		nl, ok := tn.f.NICLinkIDs(NodeID(i))
		if !ok {
			t.Fatalf("node %d has no link IDs", i)
		}
		for _, l := range []LinkID{nl.Tx, nl.Rx} {
			if seen[l] {
				t.Fatalf("link ID %d assigned twice", l)
			}
			if int(l) >= tn.f.NumLinks() {
				t.Fatalf("link ID %d >= NumLinks %d", l, tn.f.NumLinks())
			}
			seen[l] = true
		}
	}
	if _, ok := tn.f.NICLinkIDs(99); ok {
		t.Fatal("unknown node reported link IDs")
	}
}

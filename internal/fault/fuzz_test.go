package fault

import (
	"encoding/binary"
	"math"
	"testing"

	"gmsim/internal/network"
	"gmsim/internal/sim"
)

// planReader decodes an arbitrary byte stream into a Plan. Every byte
// sequence decodes to SOME plan — often a structurally invalid one, which
// is the point: Validate must classify it with an error, never a panic.
// Running out of bytes yields zeros, so short inputs are valid too.
type planReader struct{ b []byte }

func (r *planReader) u8() byte {
	if len(r.b) == 0 {
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *planReader) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], r.b)
	r.b = r.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// f64 reinterprets raw bits, so NaN, ±Inf and subnormals all occur.
func (r *planReader) f64() float64 { return math.Float64frombits(r.u64()) }

// decodePlan reads a seed, then up to 64 items, each a kind byte (modulo
// the five plan kinds) and that kind's fields. A rule's action is its last
// byte, read raw so unknown actions occur.
func decodePlan(data []byte) *Plan {
	r := &planReader{b: data}
	p := &Plan{Seed: int64(r.u64())}
	for i := 0; i < 64 && len(r.b) > 0; i++ {
		switch r.u8() % 5 {
		case 0:
			p.Rules = append(p.Rules, Rule{Links: r.sel(), Window: r.win(), Rate: r.f64(), Action: Action(int8(r.u8()))})
		case 1:
			p.Outages = append(p.Outages, Outage{Links: r.sel(), Window: r.win()})
		case 2:
			p.Crashes = append(p.Crashes, Crash{Node: network.NodeID(int32(r.u64())), At: r.time()})
		case 3:
			p.SwitchCrashes = append(p.SwitchCrashes, SwitchCrash{Switch: int(int32(r.u64())), At: r.time()})
		case 4:
			p.Stalls = append(p.Stalls, Stall{Node: network.NodeID(int32(r.u64())), At: r.time(), For: r.time()})
		}
	}
	return p
}

func (r *planReader) sel() Selector {
	return Selector{
		All:  r.u8()&1 == 1,
		Node: network.NodeID(int32(r.u64())),
		Dir:  Direction(int8(r.u8())),
	}
}

func (r *planReader) win() Window {
	return Window{From: r.time(), To: r.time()}
}

// time maps raw bits to a signed simulated time; negative values occur so
// the negative-time checks are exercised.
func (r *planReader) time() sim.Time {
	return sim.Time(int64(r.u64()))
}

// FuzzPlanValidate hammers Plan.Validate (and the Clone/Empty/String
// helpers) with arbitrary decoded plans. Invariants:
//
//   - Validate never panics, whatever the plan holds (NaN rates, negative
//     times, inverted windows, absurd node numbers).
//   - Clone is faithful: the clone validates to the same verdict and
//     reports the same emptiness.
//   - A plan Validate accepts is still accepted after Clone (golden for
//     cluster.Validate, which checks plans it then hands to Attach).
func FuzzPlanValidate(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePlan(data)
		err := p.Validate() // must not panic
		_ = p.Empty()
		for _, r := range p.Rules {
			_ = r.Links.String()
		}
		for _, o := range p.Outages {
			_ = o.Links.String()
		}
		q := p.Clone()
		errQ := q.Validate()
		if (err == nil) != (errQ == nil) {
			t.Fatalf("clone validates differently: original %v, clone %v", err, errQ)
		}
		if p.Empty() != q.Empty() {
			t.Fatalf("clone emptiness differs: %v vs %v", p.Empty(), q.Empty())
		}
	})
}

// Field sizes in decodePlan's encoding.
const (
	selBytes  = 1 + 8 + 1
	winBytes  = 8 + 8
	rateBytes = 8
)

// fuzzSeeds is FuzzPlanValidate's seed corpus: the empty input, a seed
// with one all-zero rule, one plan item of each kind — a rule for each
// action, an open-ended outage (a cut) and a bounded one (a flap), a
// crash, a switch crash, a stall — with zeroed fields, and a rule with a
// NaN rate. testdata/fuzz/FuzzPlanValidate/rule-N holds the N-th item.
func fuzzSeeds() [][]byte {
	item := func(kind byte, fields []byte) []byte {
		return append(append(make([]byte, 8), kind), fields...)
	}
	seeds := [][]byte{{}, make([]byte, 9)}
	for a := Drop; a <= Duplicate; a++ {
		rule := make([]byte, selBytes+winBytes+rateBytes+1)
		rule[len(rule)-1] = byte(a)
		seeds = append(seeds, item(0, rule))
	}
	flap := make([]byte, selBytes+winBytes)
	flap[selBytes+8] = 1 // To = 1ns
	seeds = append(seeds,
		item(1, make([]byte, selBytes+winBytes)),
		item(1, flap),
		item(2, make([]byte, 16)),
		item(3, make([]byte, 16)),
		item(4, make([]byte, 24)))
	nan := make([]byte, selBytes+winBytes+rateBytes+1)
	binary.LittleEndian.PutUint64(nan[selBytes+winBytes:], math.Float64bits(math.NaN()))
	return append(seeds, item(0, nan))
}

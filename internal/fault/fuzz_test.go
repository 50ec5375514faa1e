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

func decodePlan(data []byte) *Plan {
	r := &planReader{b: data}
	p := &Plan{Seed: int64(r.u64())}
	for i := 0; i < 64 && len(r.b) > 0; i++ {
		switch r.u8() % 9 {
		case 0:
			p.Loss = append(p.Loss, LossRule{Links: r.sel(), Window: r.win(), Rate: r.f64()})
		case 1:
			p.Corrupt = append(p.Corrupt, CorruptRule{Links: r.sel(), Window: r.win(), Rate: r.f64(), Truncate: r.u8()&1 == 1})
		case 2:
			p.Duplicate = append(p.Duplicate, DupRule{Links: r.sel(), Window: r.win(), Rate: r.f64()})
		case 3:
			p.Flaps = append(p.Flaps, Flap{Links: r.sel(), DownAt: r.time(), UpAt: r.time()})
		case 4:
			p.Cuts = append(p.Cuts, Cut{Links: r.sel(), At: r.time()})
		case 5:
			p.Crashes = append(p.Crashes, Crash{Node: network.NodeID(int32(r.u64())), At: r.time()})
		case 6:
			p.SwitchCrashes = append(p.SwitchCrashes, SwitchCrash{Switch: int(int32(r.u64())), At: r.time()})
		case 7:
			p.Stalls = append(p.Stalls, Stall{Node: network.NodeID(int32(r.u64())), At: r.time(), For: r.time()})
		case 8:
			p.Slowdowns = append(p.Slowdowns, Slowdown{Node: network.NodeID(int32(r.u64())), Window: r.win(), Factor: r.f64()})
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
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	// One of each rule kind with plausible fields.
	seed := func(build func(r []byte) []byte) {
		f.Add(build(make([]byte, 0, 64)))
	}
	for op := byte(0); op < 9; op++ {
		op := op
		seed(func(b []byte) []byte {
			b = append(b, make([]byte, 8)...) // seed
			b = append(b, op)
			b = append(b, make([]byte, 48)...) // zeroed fields
			return b
		})
	}
	// A NaN rate in a loss rule: bytes of a quiet NaN as the rate field.
	nan := make([]byte, 8+1+1+8+1+8+8+8)
	binary.LittleEndian.PutUint64(nan[len(nan)-8:], math.Float64bits(math.NaN()))
	f.Add(nan)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePlan(data)
		err := p.Validate() // must not panic
		_ = p.Empty()
		for _, l := range p.Loss {
			_ = l.Links.String()
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

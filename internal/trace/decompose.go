package trace

import (
	"fmt"
	"slices"
	"strings"

	"gmsim/internal/phase"
	"gmsim/internal/sim"
)

// Decomposition is a Section 2.2 latency breakdown of one time window as
// seen from one node. Critical partitions the window exactly: every
// nanosecond of [Start, End) is attributed to precisely one phase (or to
// Idle), so the entries sum bit-exactly to End-Start — the conservation
// invariant the conformance tests pin. When spans overlap (firmware
// processing concurrent with a DMA transfer, say), the nanosecond goes to
// the highest-priority phase, which is the phase.Phase enum order.
type Decomposition struct {
	// Node is the vantage point: spans owned by this node, plus wire spans
	// arriving at it, drive the Critical partition.
	Node int
	// Start and End bound the decomposed window.
	Start, End sim.Time
	// Critical partitions [Start, End). Index phase.NumPhases is Idle —
	// time during which no span at this node was active.
	Critical [phase.NumPhases + 1]sim.Time
	// Totals are cluster-wide raw busy-time sums per phase, clipped to the
	// window. Overlapping spans all count, so these can exceed Elapsed.
	Totals [phase.NumPhases]sim.Time
	// Spans is the number of recorded spans overlapping the window
	// (cluster-wide).
	Spans int
}

// Elapsed returns the window length.
func (d Decomposition) Elapsed() sim.Time { return d.End - d.Start }

// CriticalSum sums the Critical partition including Idle. It equals
// Elapsed by construction; tests assert the equality bit-exactly.
func (d Decomposition) CriticalSum() sim.Time {
	var sum sim.Time
	for _, v := range d.Critical {
		sum += v
	}
	return sum
}

// Idle returns the unattributed part of the window.
func (d Decomposition) Idle() sim.Time { return d.Critical[phase.NumPhases] }

// Table renders the decomposition as an aligned text table, one phase per
// line, with the share of the window and the cluster-wide total.
func (d Decomposition) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d  window [%v, %v]  elapsed %v  spans %d\n",
		d.Node, d.Start, d.End, d.Elapsed(), d.Spans)
	fmt.Fprintf(&b, "%-10s %12s %7s %14s\n", "phase", "critical", "share", "cluster-total")
	for ph := phase.Phase(0); ph <= phase.NumPhases; ph++ {
		crit := d.Critical[ph]
		share := 0.0
		if d.Elapsed() > 0 {
			share = 100 * float64(crit) / float64(d.Elapsed())
		}
		if ph == phase.NumPhases {
			fmt.Fprintf(&b, "%-10s %12v %6.1f%%\n", ph, crit, share)
			continue
		}
		fmt.Fprintf(&b, "%-10s %12v %6.1f%% %14v\n", ph, crit, share, d.Totals[ph])
	}
	return b.String()
}

// Decompose attributes the window [t0, t1) at the given node to the
// Section 2.2 phases. A span belongs to the node when the node owns it or
// is the wire span's destination. The attribution is a boundary sweep:
// per-phase active counts change only at span edges, and each slice
// between consecutive edges is charged to the highest-priority active
// phase, or to Idle when none is. The partition is exact by construction,
// so Critical sums to t1-t0 with no rounding — simulated time is discrete.
// A window longer than 2^60 ns (36 years) is cut there: End says where.
//
// On a fabric-only recorder (no phase spans), the whole window is Idle.
func (r *Recorder) Decompose(node int, t0, t1 sim.Time) Decomposition {
	d := Decomposition{Node: node, Start: t0, End: t1}
	if t1 <= t0 {
		d.End = t0
		return d
	}
	if uint64(t1)-uint64(t0) >= maxWindow {
		t1 = sim.Time(uint64(t0) + maxWindow - 1)
		d.End = t1
	}

	// An edge is its offset into the window, its phase and whether it
	// opens a span, packed so that plain integer order is time order.
	var edges []uint64
	nd := int32(node)
	add := func(s *phase.Span) {
		// Clip to the window; spans fully outside contribute nothing.
		lo, hi := max(s.Start, t0), min(s.End, t1)
		if hi <= lo {
			return
		}
		d.Spans++
		d.Totals[s.Phase] += hi - lo
		if s.Node == nd || s.Peer == nd {
			ph := uint64(s.Phase) << 1
			edges = append(edges, (uint64(lo)-uint64(t0))<<4|ph|1, (uint64(hi)-uint64(t0))<<4|ph)
		}
	}
	for _, c := range r.phases.Loop() {
		for i := range c {
			add(&c[i])
		}
	}
	for s := range r.phases.Host() {
		add(&s)
	}
	// Edges of one instant are applied together, so their order is free.
	slices.Sort(edges)

	var active [phase.NumPhases]int
	charge := func(lo, hi sim.Time) {
		if hi <= lo {
			return
		}
		for ph := phase.Phase(0); ph < phase.NumPhases; ph++ {
			if active[ph] > 0 {
				d.Critical[ph] += hi - lo
				return
			}
		}
		d.Critical[phase.NumPhases] += hi - lo
	}
	prev := t0
	for i := 0; i < len(edges); {
		at := edges[i] >> 4
		charge(prev, t0+sim.Time(at))
		for ; i < len(edges) && edges[i]>>4 == at; i++ {
			if e := edges[i]; e&1 != 0 {
				active[e>>1&7]++
			} else {
				active[e>>1&7]--
			}
		}
		prev = t0 + sim.Time(at)
	}
	charge(prev, t1)
	return d
}

// maxWindow bounds a decomposed window, so an edge's offset leaves four bits
// of its packed form for phase and direction.
const maxWindow = 1 << 60

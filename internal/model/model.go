// Package model implements the paper's analytical cost model (Section 2.2):
// the decomposition of a message transfer into Send, SDMA, Xmit, Network,
// Recv, RDMA and HRecv segments, the host-based and NIC-based barrier
// latency equations (Equations 1 and 2), the factor-of-improvement ratio
// (Equation 3), and Figure-2 style timing diagrams.
package model

import (
	"fmt"
	"math"
	"strings"
)

// Breakdown gives the cost model's segment durations in microseconds.
// The names are the paper's (Section 2.2).
type Breakdown struct {
	// Send: from host initiation of the send until the NIC detects it.
	Send float64
	// SDMA: NIC transfer of the message from host memory to the NIC
	// transmit buffer.
	SDMA float64
	// Xmit: NIC transmission of the message onto the network.
	Xmit float64
	// Network: from transmit start at the sender to receive start at the
	// receiver (small under wormhole routing).
	Network float64
	// Recv: message reception by the NIC. For the NIC-based barrier this
	// includes the firmware's per-step barrier processing, which is why
	// the same symbol appears in both equations with different values in
	// practice; NICRecv carries the barrier-path value.
	Recv float64
	// RDMA: NIC transfer of the message (or completion event) to the host.
	RDMA float64
	// HRecv: host processing of the message once transferred.
	HRecv float64

	// NICRecv is the Recv term of Equation 2: reception plus barrier
	// processing at the NIC. If zero, Recv is used.
	NICRecv float64
}

// nicRecv returns the Equation-2 receive term.
func (b Breakdown) nicRecv() float64 {
	if b.NICRecv != 0 {
		return b.NICRecv
	}
	return b.Recv
}

// steps returns log2(n), the step count of the pairwise-exchange barrier.
func steps(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Log2(float64(n))
}

// HostBarrier evaluates Equation 1:
//
//	T = log2(N) × (Send + SDMA + Network + Recv + RDMA + HRecv)
//
// The paper folds Xmit into the overlap with reception, so it does not
// appear explicitly.
func (b Breakdown) HostBarrier(n int) float64 {
	return steps(n) * (b.Send + b.SDMA + b.Network + b.Recv + b.RDMA + b.HRecv)
}

// NICBarrier evaluates Equation 2:
//
//	T = Send + log2(N) × (Network + Recv) + RDMA + HRecv
func (b Breakdown) NICBarrier(n int) float64 {
	return b.Send + steps(n)*(b.Network+b.nicRecv()) + b.RDMA + b.HRecv
}

// Factor evaluates Equation 3: the predicted factor of improvement.
func (b Breakdown) Factor(n int) float64 {
	nic := b.NICBarrier(n)
	if nic == 0 {
		return 0
	}
	return b.HostBarrier(n) / nic
}

// PaperEstimate returns the segment values implied by the paper's own
// measurements on LANai 4.3 (DESIGN.md "Calibration"): a 45.5 µs host-based
// step and a 19.4 µs NIC-based step.
func PaperEstimate43() Breakdown {
	return Breakdown{
		Send: 6.0, SDMA: 8.2, Xmit: 1.2, Network: 1.1,
		Recv: 16.0, RDMA: 7.4, HRecv: 6.8,
		NICRecv: 18.3,
	}
}

// PaperEstimate72 returns the LANai 7.2 values: identical host terms, NIC
// firmware terms halved (66 MHz vs 33 MHz), DMA terms unchanged (same PCI).
func PaperEstimate72() Breakdown {
	b := PaperEstimate43()
	// Firmware-dominated terms scale with the NIC clock; the DMA startup
	// inside SDMA/RDMA does not. Approximate firmware fractions follow the
	// calibration in DESIGN.md.
	b.SDMA = 1.6 + (b.SDMA-1.6)/2
	b.Recv = b.Recv / 2
	b.RDMA = 1.7 + (b.RDMA-1.7)/2
	b.Xmit = b.Xmit / 2
	b.NICRecv = b.NICRecv / 2
	return b
}

// Segment is one labeled interval of a timing diagram.
type Segment struct {
	Name     string
	Start    float64 // µs from barrier start
	Duration float64
}

// TimingDiagram lays out the Figure-2 sequence of segments for one node of
// an n-process barrier under the model's idealized assumptions (all
// processes start simultaneously; transmit overlaps reception).
// kind is "host" or "nic".
func (b Breakdown) TimingDiagram(kind string, n int) ([]Segment, error) {
	k := int(steps(n))
	if float64(k) != steps(n) {
		return nil, fmt.Errorf("model: timing diagram needs a power-of-two size, got %d", n)
	}
	var segs []Segment
	t := 0.0
	add := func(name string, d float64) {
		segs = append(segs, Segment{Name: name, Start: t, Duration: d})
		t += d
	}
	switch kind {
	case "host":
		for i := 0; i < k; i++ {
			add("Send", b.Send)
			add("SDMA", b.SDMA)
			add("Network", b.Network)
			add("Recv", b.Recv)
			add("RDMA", b.RDMA)
			add("HRecv", b.HRecv)
		}
	case "nic":
		add("Send", b.Send)
		for i := 0; i < k; i++ {
			add("Network", b.Network)
			add("Recv", b.nicRecv())
		}
		add("RDMA", b.RDMA)
		add("HRecv", b.HRecv)
	default:
		return nil, fmt.Errorf("model: unknown diagram kind %q", kind)
	}
	return segs, nil
}

// RenderDiagram draws a proportional ASCII timing diagram.
func RenderDiagram(segs []Segment, width int) string {
	if len(segs) == 0 {
		return ""
	}
	total := segs[len(segs)-1].Start + segs[len(segs)-1].Duration
	if total <= 0 || width < 20 {
		return ""
	}
	scale := float64(width) / total
	var b strings.Builder
	for _, s := range segs {
		off := int(s.Start * scale)
		w := int(s.Duration*scale + 0.5)
		if w < 1 {
			w = 1
		}
		fmt.Fprintf(&b, "%-8s %s%s %6.2fus\n",
			s.Name, strings.Repeat(" ", off), strings.Repeat("#", w), s.Duration)
	}
	fmt.Fprintf(&b, "total: %.2fus\n", total)
	return b.String()
}

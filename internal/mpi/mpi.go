// Package mpi is a minimal MPI-like messaging layer over the simulated GM,
// modeled on MPICH-over-GM as the paper's companion study evaluated it
// (reference [4], "Performance benefits of NIC-based barrier on
// Myrinet/GM", CAC/IPDPS '01). It provides tag-matched point-to-point
// operations and MPI-style collectives whose MPI_Barrier can be backed
// either by the host-based algorithm (stock MPICH) or by the paper's
// NIC-based barrier — the integration whose payoff the paper predicts with
// Equation 3: "we expect that the factor of improvement will also increase
// if an additional programming layer, such as MPI, is added over GM
// because of the additional overhead the layer adds to each message".
//
// The layer's per-message cost is explicit: every Send/Recv pays a
// matching/header overhead on the host (Config.MatchCost) on top of GM's
// own costs, while NIC-backed collective operations bypass it entirely —
// the mechanism behind the growing factor of improvement.
package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gmsim/internal/core"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// AnySource and AnyTag are wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config selects the layer's backing implementations and overheads.
type Config struct {
	// UseNICBarrier backs Barrier with the NIC-based PE barrier instead
	// of the host-based algorithm over tagged messages.
	UseNICBarrier bool
	// UseNICCollectives backs Bcast and Allreduce with the NIC-level tree
	// operations instead of host-level tagged messages.
	UseNICCollectives bool
	// Dim is the tree dimension for GB-style operations.
	Dim int
	// MatchCost is the per-message host CPU overhead of the layer
	// (header construction, queue matching). MPICH-era stacks spent
	// several microseconds per message here.
	MatchCost sim.Time
}

// DefaultConfig returns an MPICH-over-GM-like configuration: host-based
// everything, 5 µs of per-message layer overhead, binary trees.
func DefaultConfig() Config {
	return Config{Dim: 2, MatchCost: sim.FromMicros(5)}
}

// header is the layer's wire prefix: sender rank and tag.
const headerBytes = 8

func pack(rank, tag int, data []byte) []byte {
	out := make([]byte, headerBytes+len(data))
	binary.LittleEndian.PutUint32(out[0:], uint32(int32(rank)))
	binary.LittleEndian.PutUint32(out[4:], uint32(int32(tag)))
	copy(out[headerBytes:], data)
	return out
}

func unpack(raw []byte) (rank, tag int, data []byte) {
	rank = int(int32(binary.LittleEndian.Uint32(raw[0:])))
	tag = int(int32(binary.LittleEndian.Uint32(raw[4:])))
	return rank, tag, raw[headerBytes:]
}

// Message is a received message with its envelope.
type Message struct {
	Source int
	Tag    int
	Data   []byte
}

// World is one process's view of the communicator: rank, group, and the
// unexpected-message queue for tag matching.
type World struct {
	comm *core.Comm
	g    core.Group
	rank int
	cfg  Config

	// sched is the host-level barrier's PE schedule, fixed with the group at
	// NewWorld.
	sched []int

	// pending holds received-but-unmatched messages in arrival order
	// (MPI's unexpected message queue).
	pending []Message
}

// NewWorld wraps an open Comm for rank self of the group.
func NewWorld(comm *core.Comm, g core.Group, self int, cfg Config) (*World, error) {
	sched, err := core.PESchedule(self, len(g))
	if err != nil {
		return nil, fmt.Errorf("mpi: %w", err)
	}
	if cfg.Dim < 1 {
		cfg.Dim = 2
	}
	return &World{comm: comm, g: g, rank: self, cfg: cfg, sched: sched}, nil
}

// Send sends data to dst with the given tag (MPI_Send). The layer charges
// its per-message overhead on top of GM's.
func (w *World) Send(p *host.Process, dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(w.g) {
		return fmt.Errorf("mpi: send to rank %d of %d", dst, len(w.g))
	}
	p.Compute(w.cfg.MatchCost)
	return w.comm.Send(p, w.g[dst], pack(w.rank, tag, data))
}

// Recv blocks until a message matching (src, tag) arrives (MPI_Recv).
// AnySource/AnyTag match anything; matching respects arrival order.
func (w *World) Recv(p *host.Process, src, tag int) (Message, error) {
	match := func(m Message) bool {
		return (src == AnySource || m.Source == src) && (tag == AnyTag || m.Tag == tag)
	}
	for {
		for i, m := range w.pending {
			if match(m) {
				w.pending = append(w.pending[:i], w.pending[i+1:]...)
				p.Compute(w.cfg.MatchCost)
				return m, nil
			}
		}
		_, raw, err := w.comm.RecvAny(p)
		if err != nil {
			return Message{}, err
		}
		if len(raw) < headerBytes {
			return Message{}, fmt.Errorf("mpi: short message (%d bytes)", len(raw))
		}
		srcRank, msgTag, data := unpack(raw)
		w.pending = append(w.pending, Message{Source: srcRank, Tag: msgTag, Data: data})
	}
}

// Internal tags for the layer's own collectives.
const (
	tagBarrier = -100
	tagBcast   = -101
	tagReduce  = -102
)

// Barrier synchronizes the communicator (MPI_Barrier): NIC-based PE when
// configured, otherwise the host-based PE algorithm over tagged messages
// (every step paying the layer's per-message cost, as in MPICH). The host
// exchange is the layer's own rather than core's HostBarrierPE over tagged
// messages: its messages are the bare 8-byte header, core's carry a 1-byte
// body, and that byte would move the host-backed MPI_Barrier latencies.
func (w *World) Barrier(p *host.Process) error {
	if w.cfg.UseNICBarrier {
		return w.comm.Barrier(p, mcp.PE, w.g, w.rank, 0)
	}
	for _, r := range w.sched {
		if err := w.Send(p, r, tagBarrier, nil); err != nil {
			return err
		}
		if _, err := w.Recv(p, r, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts root 0's data to all ranks (MPI_Bcast).
func (w *World) Bcast(p *host.Process, data []byte) ([]byte, error) {
	return w.collective(p, mcp.Broadcast, 0, data)
}

// Allreduce combines every rank's int64 vector with op and returns the
// result at every rank (MPI_Allreduce).
func (w *World) Allreduce(p *host.Process, op mcp.ReduceOp, values []int64) ([]int64, error) {
	// A degraded completion (core.DegradedError) comes with its data.
	out, err := w.collective(p, mcp.AllReduce, op, core.EncodeInt64s(values))
	if out == nil {
		return nil, err
	}
	return core.DecodeInt64s(out), err
}

// collective runs op over the dimension-Dim tree: at the NICs, or as core's
// host tree walk over the layer's tagged messages, tagReduce up the tree and
// tagBcast down, each paying the per-message cost.
func (w *World) collective(p *host.Process, op mcp.CollOp, rop mcp.ReduceOp, value []byte) ([]byte, error) {
	if w.cfg.UseNICCollectives {
		return w.comm.Collective(p, true, op, rop, w.g, w.rank, w.cfg.Dim, value)
	}
	up, down := tagged{w, tagReduce}, tagged{w, tagBcast}
	return w.comm.HostCollective(p, up, down, op, rop, w.g, w.rank, w.cfg.Dim, value)
}

// tagged is the layer's Send and Recv under one internal tag, addressed by
// endpoint: a direction of core's host tree walk (core.Link).
type tagged struct {
	w   *World
	tag int
}

func (t tagged) Send(p *host.Process, dst mcp.Endpoint, data []byte) error {
	return t.w.Send(p, slices.Index(t.w.g, dst), t.tag, data)
}

func (t tagged) RecvFrom(p *host.Process, src mcp.Endpoint) ([]byte, error) {
	m, err := t.w.Recv(p, slices.Index(t.w.g, src), t.tag)
	return m.Data, err
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
)

// Collective operations — the paper's Section 8 future work ("whether other
// collective communication operations, such as reductions or all-to-all
// broadcast could benefit from similar NIC-level implementations"), in both
// placements so the benefit can be measured exactly as Figure 5 measures
// barriers:
//
//   - NIC-based: the host computes the tree neighborhood and hands it to
//     the firmware with the local contribution; the NICs combine partials
//     and forward payloads among themselves (mcp/tree.go);
//   - host-based: the same tree walk (treeWalk) over ordinary GM sends and
//     receives.

// EncodeInt64s packs values as a little-endian reduce vector.
func EncodeInt64s(values []int64) []byte {
	out := make([]byte, len(values)*mcp.ElemBytes)
	for i, v := range values {
		binary.LittleEndian.PutUint64(out[i*mcp.ElemBytes:], uint64(v))
	}
	return out
}

// DecodeInt64s unpacks a reduce vector.
func DecodeInt64s(data []byte) []int64 {
	out := make([]int64, len(data)/mcp.ElemBytes)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[i*mcp.ElemBytes:]))
	}
	return out
}

// DegradedError is what a NIC collective returns, together with the data it
// produced, when it completed around fail-stopped nodes (failure detection
// on): a partial sum, a broadcast that reached only an orphaned subtree, an
// allgather that could not assemble (nil data). Dead is the completing NIC's
// view, ascending; collective frames do not gossip it, so ranks of one
// operation can name different sets — or, knowing of no death, none.
type DegradedError struct{ Dead []network.NodeID }

func (e *DegradedError) Error() string {
	return fmt.Sprintf("core: collective completed degraded around dead nodes %v", e.Dead)
}

// Collective runs op for rank self of g over the flat dimension-dim tree, at
// the NICs (nic) or at the host, and returns what the operation delivers
// here: the broadcast payload, the combined vector (Reduce: at rank 0 only),
// or the rank-ordered concatenation of every rank's block (AllGather: all
// blocks the same non-zero length). value is this rank's contribution,
// combined by rop; a broadcast reads it at the root only. The inputs are
// checked before anything is posted or sent, so both levels refuse the same
// calls with the same error.
func (c *Comm) Collective(p *host.Process, nic bool, op mcp.CollOp, rop mcp.ReduceOp, g Group, self, dim int, value []byte) ([]byte, error) {
	if !nic {
		return c.HostCollective(p, c, c, op, rop, g, self, dim, value)
	}
	_, tok, err := c.collToken(op, rop, g, self, dim, value)
	if err != nil {
		return nil, err
	}
	if err := c.port.ProvideCollectiveBuffer(p); err != nil {
		return nil, err
	}
	if err := c.port.CollectiveSend(p, tok); err != nil {
		return nil, err
	}
	for {
		ev := c.port.Receive(p)
		if ev.Kind == mcp.CollDoneEvent {
			if len(ev.DeadNodes) > 0 {
				return ev.Data, &DegradedError{Dead: ev.DeadNodes}
			}
			return ev.Data, nil
		}
		c.dispatch(ev)
	}
}

// HostCollective is Collective at the host with the walk's messages carried
// by up (child to parent) and down (parent to child) instead of this Comm's
// own Send and RecvFrom: a layer over GM (package mpi) passes its own
// envelope.
func (c *Comm) HostCollective(p *host.Process, up, down Link, op mcp.CollOp, rop mcp.ReduceOp, g Group, self, dim int, value []byte) ([]byte, error) {
	nb, tok, err := c.collToken(op, rop, g, self, dim, value)
	if err != nil {
		return nil, err
	}
	return treeWalk(p, up, down, nb, tok)
}

// collToken checks a collective's inputs and returns rank self's place in
// the flat tree and the operation's token.
func (c *Comm) collToken(op mcp.CollOp, rop mcp.ReduceOp, g Group, self, dim int, value []byte) (*tokenCache, *mcp.CollToken, error) {
	if op == mcp.AllGather && len(value) == 0 {
		return nil, nil, errors.New("core: allgather needs a non-empty block")
	}
	nb, err := c.neighbourhood(mcp.GB, g, self, dim, nil)
	if err != nil {
		return nil, nil, err
	}
	if op == mcp.Broadcast && nb.root && len(value) == 0 {
		return nil, nil, errors.New("core: broadcast root needs data")
	}
	tok := &mcp.CollToken{Op: op, Reduce: rop, Root: nb.root, Parent: nb.parent, Children: nb.children}
	if op != mcp.Broadcast || nb.root {
		tok.Value = value
	}
	if op == mcp.AllGather {
		tok.Rank, tok.BlockSize, tok.GroupSize = self, len(value), len(g)
	}
	return nb, tok, nil
}

// Link is one direction of the host tree walk's messages: a send to a tree
// neighbour and a receive from one. *Comm is the plain one.
type Link interface {
	Send(p *host.Process, dst mcp.Endpoint, data []byte) error
	RecvFrom(p *host.Process, src mcp.Endpoint) ([]byte, error)
}

// treeWalk is the host level's one gather/broadcast walk, the firmware's
// (mcp/tree.go) over sends and receives, driven by what it reads off the
// token — nil for the GB barrier: gather from the children, send up to the
// parent, wait for its release, forward the release to the children. An
// operation without an up phase (Broadcast) skips the first two steps, one
// without a down phase (Reduce) the last two. up carries the first two
// steps' messages, down the last two's. A barrier message carries one byte.
// The forwards are posted back to back, so they pipeline through the NIC —
// the effect the paper credits for the host-based GB's competitiveness
// (Section 6).
func treeWalk(p *host.Process, up, down Link, nb *tokenCache, tok *mcp.CollToken) ([]byte, error) {
	hasUp, hasDown := tok.Phases()
	acc := tok.Seed()
	if tok == nil {
		acc = barrierPayload
	}
	for i := 0; hasUp && i < len(nb.children); i++ {
		part, err := up.RecvFrom(p, nb.children[i])
		if err != nil {
			return nil, err
		}
		acc = tok.Absorb(acc, part)
	}
	var data []byte
	var err error
	if nb.root {
		data, err = tok.Result(acc)
	} else if hasUp {
		err = up.Send(p, nb.parent, acc)
	}
	if err == nil && hasDown && !nb.root {
		data, err = down.RecvFrom(p, nb.parent)
	}
	if err != nil || !hasDown {
		return data, err
	}
	if tok == nil {
		data = barrierPayload
	}
	for _, ch := range nb.children {
		if err := down.Send(p, ch, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// NICAllReduce combines every rank's vector and distributes the result to
// all ranks, entirely at the NIC level: Collective's headline case.
func (c *Comm) NICAllReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	return c.Collective(p, true, mcp.AllReduce, op, g, self, dim, value)
}

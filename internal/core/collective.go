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
//   - host-based: the same trees walked by the host over ordinary GM
//     sends and receives.

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

// collTree is rank self's place in the tree every collective runs over: the
// flat dimension-dim heap tree, whatever leaf map the Comm's barriers use.
func (c *Comm) collTree(g Group, self, dim int) (*tokenCache, error) {
	return c.neighbourhood(mcp.GB, g, self, dim, nil)
}

// gatherTree is where NICAllGather and HostAllGather both start. The block
// is checked here, before anything is posted or sent, so every rank returns
// the same error: the firmware rejects an empty block only after the
// doorbell, and a host-level root that fails to assemble leaves the other
// ranks waiting for its broadcast.
func (c *Comm) gatherTree(g Group, self, dim int, block []byte) (*tokenCache, error) {
	if len(block) == 0 {
		return nil, errors.New("core: allgather needs a non-empty block")
	}
	return c.collTree(g, self, dim)
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

// runNICCollective hands the firmware rank self's tree neighborhood with the
// token and waits for the completion event.
func (c *Comm) runNICCollective(p *host.Process, nb *tokenCache, tok *mcp.CollToken) ([]byte, error) {
	tok.Root, tok.Parent, tok.Children = nb.root, nb.parent, nb.children
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

// NICBroadcast runs a NIC-based broadcast over a dimension-dim tree:
// the root's data reaches every rank without any intermediate host
// involvement. Every rank returns the payload.
func (c *Comm) NICBroadcast(p *host.Process, g Group, self, dim int, data []byte) ([]byte, error) {
	nb, err := c.collTree(g, self, dim)
	if err != nil {
		return nil, err
	}
	tok := &mcp.CollToken{Op: mcp.Broadcast}
	if self == 0 {
		tok.Value = data
	}
	return c.runNICCollective(p, nb, tok)
}

// NICReduce combines every rank's vector with op at the NICs; rank 0
// returns the result, other ranks return nil.
func (c *Comm) NICReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	nb, err := c.collTree(g, self, dim)
	if err != nil {
		return nil, err
	}
	return c.runNICCollective(p, nb, &mcp.CollToken{Op: mcp.Reduce, Reduce: op, Value: value})
}

// NICAllReduce combines every rank's vector and distributes the result to
// all ranks, entirely at the NIC level.
func (c *Comm) NICAllReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	nb, err := c.collTree(g, self, dim)
	if err != nil {
		return nil, err
	}
	return c.runNICCollective(p, nb, &mcp.CollToken{Op: mcp.AllReduce, Reduce: op, Value: value})
}

// NICAllGather runs a NIC-based all-to-all broadcast (the Section 8
// wording): every rank contributes block (all the same non-zero length) and
// every rank returns the rank-ordered concatenation of all blocks.
func (c *Comm) NICAllGather(p *host.Process, g Group, self, dim int, block []byte) ([]byte, error) {
	nb, err := c.gatherTree(g, self, dim, block)
	if err != nil {
		return nil, err
	}
	return c.runNICCollective(p, nb, &mcp.CollToken{
		Op: mcp.AllGather, Value: block,
		Rank: self, BlockSize: len(block), GroupSize: len(g),
	})
}

// HostAllGather is the host-based baseline: blocks gather up the tree as
// the firmware's tagged entries (so the two levels are directly
// comparable), the root assembles the array, and the broadcast path
// distributes it.
func (c *Comm) HostAllGather(p *host.Process, g Group, self, dim int, block []byte) ([]byte, error) {
	nb, err := c.gatherTree(g, self, dim, block)
	if err != nil {
		return nil, err
	}
	entries := mcp.PackEntry(self, block)
	for _, ch := range nb.children {
		part, err := c.RecvFrom(p, ch)
		if err != nil {
			return nil, err
		}
		entries = append(entries, part...)
	}
	var full []byte
	if nb.root {
		full, err = mcp.AssembleGather(entries, len(g), len(block))
	} else if err = c.Send(p, nb.parent, entries); err == nil {
		full, err = c.RecvFrom(p, nb.parent)
	}
	if err != nil {
		return nil, err
	}
	for _, ch := range nb.children {
		if err := c.Send(p, ch, full); err != nil {
			return nil, err
		}
	}
	return full, nil
}

// HostBroadcast is the host-based baseline: the payload is forwarded down
// the tree by the hosts.
func (c *Comm) HostBroadcast(p *host.Process, g Group, self, dim int, data []byte) ([]byte, error) {
	nb, err := c.collTree(g, self, dim)
	if err != nil {
		return nil, err
	}
	if !nb.root {
		data, err = c.RecvFrom(p, nb.parent)
		if err != nil {
			return nil, err
		}
	} else if data == nil {
		return nil, fmt.Errorf("core: broadcast root needs data")
	}
	for _, ch := range nb.children {
		if err := c.Send(p, ch, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// HostReduce is the host-based baseline: partials combine at each host on
// the way up the tree, by the firmware's element-wise rule. Rank 0 returns
// the result; others return nil.
func (c *Comm) HostReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	nb, err := c.collTree(g, self, dim)
	if err != nil {
		return nil, err
	}
	acc := append([]byte(nil), value...)
	for _, ch := range nb.children {
		part, err := c.RecvFrom(p, ch)
		if err != nil {
			return nil, err
		}
		op.Combine(acc, part)
	}
	if !nb.root {
		return nil, c.Send(p, nb.parent, acc)
	}
	return acc, nil
}

// HostAllReduce is HostReduce followed by HostBroadcast.
func (c *Comm) HostAllReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	acc, err := c.HostReduce(p, g, self, dim, op, value)
	if err != nil {
		return nil, err
	}
	return c.HostBroadcast(p, g, self, dim, acc)
}

package core

import (
	"encoding/binary"
	"fmt"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
)

// Collective operations — the paper's Section 8 future work ("whether other
// collective communication operations, such as reductions or all-to-all
// broadcast could benefit from similar NIC-level implementations"), in both
// placements so the benefit can be measured exactly as Figure 5 measures
// barriers:
//
//   - NIC-based: the host computes the tree neighborhood and hands it to
//     the firmware with the local contribution; the NICs combine partials
//     and forward payloads among themselves (mcp/collective.go);
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

// applyHost combines two vectors at the host (for the host-based baseline).
func applyHost(op mcp.ReduceOp, dst, src []byte) {
	// The element-wise rules match the firmware's combine exactly.
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i+mcp.ElemBytes <= n; i += mcp.ElemBytes {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		var r int64
		switch op {
		case mcp.OpSum:
			r = a + b
		case mcp.OpMin:
			r = a
			if b < a {
				r = b
			}
		case mcp.OpMax:
			r = a
			if b > a {
				r = b
			}
		case mcp.OpBAnd:
			r = a & b
		case mcp.OpBOr:
			r = a | b
		default:
			r = a
		}
		binary.LittleEndian.PutUint64(dst[i:], uint64(r))
	}
}

// collToken builds the tree neighborhood for rank self.
func collToken(op mcp.CollOp, rop mcp.ReduceOp, g Group, self, dim int, value []byte) (*mcp.CollToken, error) {
	parent, children, err := GBTree(self, len(g), dim, nil)
	if err != nil {
		return nil, err
	}
	tok := &mcp.CollToken{Op: op, Reduce: rop, Value: value}
	if parent < 0 {
		tok.Root = true
	} else {
		tok.Parent = g[parent]
	}
	for _, c := range children {
		tok.Children = append(tok.Children, g[c])
	}
	return tok, nil
}

// runNICCollective posts the token and waits for the completion event.
func (c *Comm) runNICCollective(p *host.Process, tok *mcp.CollToken) ([]byte, error) {
	if err := c.port.ProvideCollectiveBuffer(p); err != nil {
		return nil, err
	}
	if err := c.port.CollectiveSend(p, tok); err != nil {
		return nil, err
	}
	for {
		ev := c.port.Receive(p)
		if ev.Kind == mcp.CollDoneEvent {
			return ev.Data, nil
		}
		c.dispatch(ev)
	}
}

// NICBroadcast runs a NIC-based broadcast over a dimension-dim tree:
// the root's data reaches every rank without any intermediate host
// involvement. Every rank returns the payload.
func (c *Comm) NICBroadcast(p *host.Process, g Group, self, dim int, data []byte) ([]byte, error) {
	var value []byte
	if self == 0 {
		value = data
	}
	tok, err := collToken(mcp.Broadcast, 0, g, self, dim, value)
	if err != nil {
		return nil, err
	}
	return c.runNICCollective(p, tok)
}

// NICReduce combines every rank's vector with op at the NICs; rank 0
// returns the result, other ranks return nil.
func (c *Comm) NICReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	tok, err := collToken(mcp.Reduce, op, g, self, dim, value)
	if err != nil {
		return nil, err
	}
	return c.runNICCollective(p, tok)
}

// NICAllReduce combines every rank's vector and distributes the result to
// all ranks, entirely at the NIC level.
func (c *Comm) NICAllReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	tok, err := collToken(mcp.AllReduce, op, g, self, dim, value)
	if err != nil {
		return nil, err
	}
	return c.runNICCollective(p, tok)
}

// NICAllGather runs a NIC-based all-to-all broadcast (the Section 8
// wording): every rank contributes block (all the same length) and every
// rank returns the rank-ordered concatenation of all blocks.
func (c *Comm) NICAllGather(p *host.Process, g Group, self, dim int, block []byte) ([]byte, error) {
	tok, err := collToken(mcp.AllGather, 0, g, self, dim, block)
	if err != nil {
		return nil, err
	}
	tok.Rank = self
	tok.BlockSize = len(block)
	tok.GroupSize = len(g)
	return c.runNICCollective(p, tok)
}

// HostAllGather is the host-based baseline: blocks gather up the tree
// tagged with their origin rank, the root assembles the array, and the
// broadcast path distributes it.
func (c *Comm) HostAllGather(p *host.Process, g Group, self, dim int, block []byte) ([]byte, error) {
	parent, children, err := GBTree(self, len(g), dim, nil)
	if err != nil {
		return nil, err
	}
	// Tagged entries: 8-byte rank header + block, matching the firmware's
	// wire format so the two levels are directly comparable.
	entries := packEntryHost(self, block)
	for _, ch := range children {
		part, err := c.RecvFrom(p, g[ch])
		if err != nil {
			return nil, err
		}
		entries = append(entries, part...)
	}
	if parent >= 0 {
		if err := c.Send(p, g[parent], entries); err != nil {
			return nil, err
		}
		full, err := c.RecvFrom(p, g[parent])
		if err != nil {
			return nil, err
		}
		for _, ch := range children {
			if err := c.Send(p, g[ch], full); err != nil {
				return nil, err
			}
		}
		return full, nil
	}
	full, err := assembleHost(entries, len(g), len(block))
	if err != nil {
		return nil, err
	}
	for _, ch := range children {
		if err := c.Send(p, g[ch], full); err != nil {
			return nil, err
		}
	}
	return full, nil
}

func packEntryHost(rank int, block []byte) []byte {
	out := make([]byte, 8+len(block))
	binary.LittleEndian.PutUint64(out, uint64(int64(rank)))
	copy(out[8:], block)
	return out
}

func assembleHost(entries []byte, groupSize, blockSize int) ([]byte, error) {
	stride := 8 + blockSize
	if blockSize <= 0 || len(entries) != groupSize*stride {
		return nil, fmt.Errorf("core: allgather assembled %d bytes, want %d", len(entries), groupSize*stride)
	}
	out := make([]byte, groupSize*blockSize)
	for off := 0; off < len(entries); off += stride {
		rank := int(int64(binary.LittleEndian.Uint64(entries[off:])))
		if rank < 0 || rank >= groupSize {
			return nil, fmt.Errorf("core: allgather rank %d out of range", rank)
		}
		copy(out[rank*blockSize:], entries[off+8:off+stride])
	}
	return out, nil
}

// HostBroadcast is the host-based baseline: the payload is forwarded down
// the tree by the hosts.
func (c *Comm) HostBroadcast(p *host.Process, g Group, self, dim int, data []byte) ([]byte, error) {
	parent, children, err := GBTree(self, len(g), dim, nil)
	if err != nil {
		return nil, err
	}
	if parent >= 0 {
		data, err = c.RecvFrom(p, g[parent])
		if err != nil {
			return nil, err
		}
	} else if data == nil {
		return nil, fmt.Errorf("core: broadcast root needs data")
	}
	for _, ch := range children {
		if err := c.Send(p, g[ch], data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// HostReduce is the host-based baseline: partials combine at each host on
// the way up the tree. Rank 0 returns the result; others return nil.
func (c *Comm) HostReduce(p *host.Process, g Group, self, dim int, op mcp.ReduceOp, value []byte) ([]byte, error) {
	parent, children, err := GBTree(self, len(g), dim, nil)
	if err != nil {
		return nil, err
	}
	acc := append([]byte(nil), value...)
	for _, ch := range children {
		part, err := c.RecvFrom(p, g[ch])
		if err != nil {
			return nil, err
		}
		applyHost(op, acc, part)
	}
	if parent >= 0 {
		if err := c.Send(p, g[parent], acc); err != nil {
			return nil, err
		}
		return nil, nil
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

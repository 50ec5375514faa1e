package experiments

import (
	"fmt"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
)

// The NIC collectives, pinned. TestCollectiveFactorsSane is a sanity range
// and the determinism matrix is run == re-run; collectives.golden is what
// holds every collective timestamp, result byte and firmware counter still
// while the firmware underneath is rearranged. Each cell builds its Session
// itself and runs MeasureCollective's protocol: rounds separated by an
// untimed PE barrier, the sample being (latest completion) minus (latest
// start) across ranks.

// collCell is one line of collectives.golden.
type collCell struct {
	op       mcp.CollOp
	nodes    int
	dim      int
	reliable bool
	// late, when nonzero, is a rank whose port opens collLateBy after the
	// others and whose peers skip the first separator barrier: their first
	// frames reach a closed port, so the record-then-reject protocol and the
	// resend of each collective frame kind run. Such a cell has no warm-up:
	// the round that waited for the resend is in its mean.
	late int
}

const (
	collWarmup = 2
	collIters  = 6
	collElems  = 4
	collLateBy = 300 * sim.Microsecond
)

func (c collCell) name() string {
	mode := "plain"
	if c.reliable {
		mode = "reliable"
	}
	s := fmt.Sprintf("%s n=%d dim=%d %s", c.op, c.nodes, c.dim, mode)
	if c.late != 0 {
		s += fmt.Sprintf(" late=%d", c.late)
	}
	return s
}

// collValue is rank's contribution: element j is (rank+1)*(j+1), so sums and
// gathers are recognisable in the golden.
func collValue(rank int) []byte {
	v := make([]int64, collElems)
	for j := range v {
		v[j] = int64((rank + 1) * (j + 1))
	}
	return core.EncodeInt64s(v)
}

// nicCollective runs one NIC-based collective of the given kind at rank.
func nicCollective(p *host.Process, comm *core.Comm, op mcp.CollOp, g core.Group, rank, dim int) ([]byte, error) {
	switch op {
	case mcp.Broadcast:
		var data []byte
		if rank == 0 {
			data = collValue(0)
		}
		return comm.NICBroadcast(p, g, rank, dim, data)
	case mcp.Reduce:
		return comm.NICReduce(p, g, rank, dim, mcp.OpSum, collValue(rank))
	case mcp.AllReduce:
		return comm.NICAllReduce(p, g, rank, dim, mcp.OpSum, collValue(rank))
	default:
		return comm.NICAllGather(p, g, rank, dim, collValue(rank))
	}
}

// spawnRanks starts body on every node the way Session.SpawnAll does, except
// that rank late (when nonzero) computes for collLateBy before it opens its
// port.
func spawnRanks(s *Session, late int, body RankBody) {
	n := s.Cluster.Nodes()
	for node := 0; node < n; node++ {
		if node != late || late == 0 {
			s.Spawn(node, 4*n+16, body)
			continue
		}
		s.Cluster.Spawn(node, node, func(p *host.Process) {
			p.Compute(collLateBy)
			port, err := gm.Open(p, s.Cluster.MCP(node), 2)
			if err != nil {
				s.errs[node] = err
				return
			}
			comm, err := core.NewComm(p, port, 4*n+16)
			if err != nil {
				s.errs[node] = err
				return
			}
			s.errs[node] = body(p, comm)
		})
	}
}

// runCollCell runs one cell and renders its golden line.
func runCollCell(c collCell) string {
	cfg := cluster.DefaultConfig(c.nodes)
	cfg.ReliableBarrier = c.reliable
	s := must(NewSession(cfg))
	defer s.Close()
	g := core.UniformGroup(c.nodes, 2)
	warmup := collWarmup
	if c.late != 0 {
		warmup = 0
	}
	rounds := warmup + collIters
	starts := make([]sim.Time, rounds)
	latest := make([]sim.Time, rounds)
	var rank0 []byte
	spawnRanks(s, c.late, func(p *host.Process, comm *core.Comm) error {
		rank := p.Rank()
		for i := 0; i < rounds; i++ {
			if i > 0 || c.late == 0 {
				if err := comm.Barrier(p, mcp.PE, g, rank, 0); err != nil {
					return err
				}
			}
			if p.Now() > starts[i] {
				starts[i] = p.Now()
			}
			data, err := nicCollective(p, comm, c.op, g, rank, c.dim)
			if err != nil {
				return err
			}
			if p.Now() > latest[i] {
				latest[i] = p.Now()
			}
			if rank == 0 {
				rank0 = data
			}
		}
		return nil
	})
	check(s.Run())
	total := 0.0
	for i := warmup; i < rounds; i++ {
		total += (latest[i] - starts[i]).Micros()
	}
	m := s.Cluster.Metrics()
	return fmt.Sprintf("%s: mean_us=%.6f rank0=%v sent=%d recvd=%d combines=%d completed=%d unexp=%d dups=%d resends=%d proto_err=%d fw_tasks=%d\n",
		c.name(), total/collIters, core.DecodeInt64s(rank0),
		m.Get("mcp.CollSent"), m.Get("mcp.CollRecvd"), m.Get("mcp.CollCombines"), m.Get("mcp.CollCompleted"),
		m.Get("mcp.BarrierUnexp"), m.Get("mcp.BarrierDups"), m.Get("mcp.BarrierResends"),
		m.Get("mcp.ProtocolErrors"), m.Get("fw.tasks"))
}

// collCells is the pinned matrix: the four NIC ops × nodes {4, 16} × dim
// {2, 4} (a star, dim 3, at 4 nodes: the widest tree there is) × {plain,
// ReliableBarrier}, then one closed-port cell per op. In the closed-port
// cells rank 4 of the dim-2 tree is the late one — child of rank 1, parent
// of the leaves 9 and 10 — so a Broadcast has its CollBcastFrame rejected and
// resent, and the three gathering ops their leaves' ReduceFrames. Rank 4
// because none of its tree neighbours is one of its PE partners (5, 6, 0,
// 12): the closed-port record holds one message per source endpoint, and a
// neighbour's next separator-barrier frame would overwrite the collective
// frame it has to reject.
func collCells() []collCell {
	ops := []mcp.CollOp{mcp.Broadcast, mcp.Reduce, mcp.AllReduce, mcp.AllGather}
	var cells []collCell
	for _, op := range ops {
		for _, n := range []int{4, 16} {
			for _, dim := range []int{2, min(4, n-1)} {
				for _, rel := range []bool{false, true} {
					cells = append(cells, collCell{op: op, nodes: n, dim: dim, reliable: rel})
				}
			}
		}
	}
	for _, op := range ops {
		cells = append(cells, collCell{op: op, nodes: 16, dim: 2, late: 4})
	}
	return cells
}

// TestCollectivesGolden pins every cell of collCells bit-exactly. Regenerate
// after an intentional behaviour change with
//
//	go test ./internal/experiments -run TestCollectivesGolden -update-scenarios
func TestCollectivesGolden(t *testing.T) {
	lines := runner.Map(0, collCells(), runCollCell)
	checkGolden(t, "collectives.golden", strings.Join(lines, ""))
}

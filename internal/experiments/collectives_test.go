package experiments

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/network"
	"gmsim/internal/runner"
	"gmsim/internal/sim"
)

// The NIC collectives, pinned. TestCollectiveFactorsSane is a sanity range
// and the determinism matrix is run == re-run; collectives.golden is what
// holds every collective timestamp, result byte and firmware counter still
// while the firmware underneath is rearranged. Each cell builds its Session
// itself (for the late port and the per-rank data) and runs Run's
// collective protocol: rounds separated by an untimed PE barrier, the sample
// being (latest completion) minus (latest start) across ranks.

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

// runCollCell runs one cell and renders its golden line, or the run's
// error in its place.
func runCollCell(c collCell) string {
	cfg := cluster.DefaultConfig(c.nodes)
	cfg.ReliableBarrier = c.reliable
	s, err := NewSession(cfg)
	if err != nil {
		return err.Error()
	}
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
			data, err := comm.Collective(p, true, c.op, mcp.OpSum, g, rank, c.dim, collValue(rank))
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
	if err := s.Run(); err != nil {
		return err.Error()
	}
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
// resent, and the three gathering ops their leaves' ReduceFrames. None of
// rank 4's tree neighbours is one of its PE partners (5, 6, 0, 12);
// TestLatePortNeighbourIsPEPartner runs the case where one is.
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

// TestLatePortNeighbourIsPEPartner runs the closed-port cells with the late
// rank one of whose tree neighbours is also one of its PE partners (rank 1:
// parent 0, partners 0, 3, 5, 9), so one peer sends the late port both a
// collective frame and a separator-barrier frame. Both must be rejected and
// resent: every op completes every round, as in the rank-4 cells.
func TestLatePortNeighbourIsPEPartner(t *testing.T) {
	for _, op := range []mcp.CollOp{mcp.Broadcast, mcp.Reduce, mcp.AllReduce, mcp.AllGather} {
		c := collCell{op: op, nodes: 16, dim: 2, late: 1}
		if line := runCollCell(c); !strings.HasPrefix(line, c.name()+":") {
			t.Errorf("%s: %s", c.name(), line)
		}
	}
}

// The NIC collectives under a crash plan. Before the firmware ran them on
// the barrier's tree engine nothing repaired a collective: each of these
// three cells deadlocked every survivor (a parent waiting silently for a dead
// leaf's partial; a dead interior node's subtree waiting for a release that
// never comes). Now every survivor finishes every iteration, degraded ones
// returning their data with a core.DegradedError that names the dead set the
// completing NIC knew. Collective frames do not gossip that set, so who sees
// which set is part of what the goldens pin.

// collCrashCell is one crash cell: a 16-node dim-4 tree on the detection
// testbed, every rank looping the op back to back (no separator barriers:
// their frames would spread the dead set), the victim fail-stopped 300 µs in.
type collCrashCell struct {
	name   string
	op     mcp.CollOp
	victim network.NodeID
}

func collCrashCells() []collCrashCell {
	return []collCrashCell{
		{"allreduce16-crash-leaf", mcp.AllReduce, 5},
		{"allreduce16-crash-interior", mcp.AllReduce, 1},
		{"bcast16-crash-interior", mcp.Broadcast, 1},
	}
}

// runCollCrashCell runs one crash cell and renders its golden summary:
// rank 0's clock (as the fleet's summaries), the cluster-wide repair
// counters, and which ranks' last iteration named which dead set; or the
// run's error in its place.
func runCollCrashCell(c collCrashCell) string {
	const n, dim, warmup, iters = 16, 4, 2, 8
	s, err := NewSession(detectCfg(n, crashPlan(1, c.victim, sim.FromMicros(300))))
	if err != nil {
		return err.Error()
	}
	defer s.Close()
	g := core.UniformGroup(n, 2)
	var t0, t1, maxIter sim.Time
	var rank0 []byte
	finished, degraded := 0, 0
	lastDead := make([]string, n) // by rank, for ranks that finished
	s.SpawnAll(func(p *host.Process, comm *core.Comm) error {
		rank := p.Rank()
		for i := 0; i < warmup+iters; i++ {
			if rank == 0 && i == warmup {
				t0 = p.Now()
			}
			before := p.Now()
			data, err := comm.Collective(p, true, c.op, mcp.OpSum, g, rank, dim, collValue(rank))
			dead := "-"
			if deg := (*core.DegradedError)(nil); errors.As(err, &deg) {
				degraded++
				dead = fmt.Sprint(deg.Dead)
			} else if err != nil {
				return err
			}
			if d := p.Now() - before; rank == 0 && i >= warmup && d > maxIter {
				maxIter = d
			}
			if rank == 0 {
				rank0, t1 = data, p.Now()
			}
			if i == warmup+iters-1 {
				finished++
				lastDead[rank] = dead
			}
		}
		return nil
	})
	if err := s.Run(); err != nil {
		return err.Error()
	}

	var b strings.Builder
	fmt.Fprintf(&b, "collective %s: nodes=%d op=%s dim=%d victim=%d\n", c.name, n, c.op, dim, c.victim)
	fmt.Fprintf(&b, "  mean_us=%.3f max_iter_us=%.3f drain_us=%.3f\n",
		(t1-t0).Micros()/iters, maxIter.Micros(), s.Cluster.Sim().Now().Micros())
	m := s.Cluster.Metrics()
	fmt.Fprintf(&b, "  completed=%d degraded=%d probes=%d declared=%d skipped=%d promotions=%d repairs=%d proto_err=%d\n",
		m.Get("mcp.CollCompleted"), degraded, m.Get("mcp.BarrierProbes"), m.Get("mcp.PeersDeclaredDead"),
		m.Get("mcp.BarrierPeersSkipped"), m.Get("mcp.BarrierRootPromotions"), m.Get("mcp.BarrierRepairs"),
		m.Get("mcp.ProtocolErrors"))
	fmt.Fprintf(&b, "  finished=%d/%d rank0=%v\n", finished, n, core.DecodeInt64s(rank0))
	// Who saw which dead set, in order of first appearance by rank.
	var sets []string
	ranks := make(map[string][]string)
	for rank, set := range lastDead {
		if set == "" {
			continue // the victim never got that far
		}
		if ranks[set] == nil {
			sets = append(sets, set)
		}
		ranks[set] = append(ranks[set], fmt.Sprint(rank))
	}
	for _, set := range sets {
		fmt.Fprintf(&b, "  dead=%s: ranks %s\n", set, strings.Join(ranks[set], ","))
	}
	return b.String()
}

// TestCollectiveCrashGolden pins the three crash cells and holds each to the
// liveness claim itself: all 15 survivors finish every iteration and the
// cluster drains without a stranded process (runCollCrashCell returns the
// run's error in place of a summary on one).
// Regenerate with -update-scenarios.
func TestCollectiveCrashGolden(t *testing.T) {
	cells := collCrashCells()
	for i, got := range runner.Map(0, cells, runCollCrashCell) {
		if !strings.Contains(got, "finished=15/16") || !strings.Contains(got, "proto_err=0") {
			t.Errorf("%s: survivors did not all finish cleanly:\n%s", cells[i].name, got)
		}
		checkGolden(t, filepath.Join("scenarios", cells[i].name+".golden"), got)
	}
}

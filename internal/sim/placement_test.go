package sim_test

import (
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/experiments"
	"gmsim/internal/host"
)

// TestHostBarrierQueuesNoTimerEntry is the twin of experiments'
// TestEventsPerRankBarrier for queue work rather than events: a clean
// crossbar-16 host PE barrier places in the calendar exactly the events it
// executes. Every reliable send arms its connection's retransmission timer
// and the acknowledgment withdraws it; that is a Timer (sim.Timer), which
// queues beside the calendar, so no event is placed only to be cancelled.
// While the timer was an AtCall event with a Cancel per acknowledgment, a
// barrier placed one event per send more than it ran.
func TestHostBarrierQueuesNoTimerEntry(t *testing.T) {
	const lo, hi = 10, 20
	run := func(iters int) (placed, executed int64) {
		s, err := experiments.NewSession(cluster.DefaultConfig(16))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		g := core.UniformGroup(16, 2)
		s.SpawnAll(func(p *host.Process, c *core.Comm) error {
			for i := 0; i < iters; i++ {
				if err := c.HostBarrierPE(p, g, p.Rank()); err != nil {
					return err
				}
			}
			return nil
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Cluster.Sim().Placements(), s.Cluster.Sim().Executed()
	}
	placedLo, execLo := run(lo)
	placedHi, execHi := run(hi)
	placed, executed := (placedHi-placedLo)/(hi-lo), (execHi-execLo)/(hi-lo)
	t.Logf("%d events placed and %d executed per barrier", placed, executed)
	if placed != executed || placedHi-placedLo != execHi-execLo {
		t.Errorf("%d more barriers placed %d events in the calendar and executed %d: want as many placed as run",
			hi-lo, placedHi-placedLo, execHi-execLo)
	}
}

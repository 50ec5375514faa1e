package mpi

import (
	"fmt"
	"strings"
	"testing"

	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// TestMPIOperationTimingsPinned pins, for Barrier, Bcast and Allreduce on
// both backends at 8 ranks, the instant each rank returns from each call and
// what the call returned. The ranks enter 3 µs apart and run the operation
// twice, so messages that arrive before their receive is posted wait in the
// unexpected queue. The host backend's instants are the only check on the
// timing of the layer's host-level walks over tagged messages; the values are
// those of the walks as first written (a host PE barrier over the layer's
// header-only messages, the gather/release walk over tagReduce up and
// tagBcast down), and any change to what those walks send, receive or charge
// moves them.
func TestMPIOperationTimingsPinned(t *testing.T) {
	ops := map[string]func(p *host.Process, w *World, it int) (string, error){
		"barrier": func(p *host.Process, w *World, it int) (string, error) {
			return "ok", w.Barrier(p)
		},
		"bcast": func(p *host.Process, w *World, it int) (string, error) {
			var in []byte
			if w.rank == 0 {
				in = []byte(fmt.Sprintf("bcast-%d", it))
			}
			out, err := w.Bcast(p, in)
			return fmt.Sprintf("%q", out), err
		},
		"allreduce": func(p *host.Process, w *World, it int) (string, error) {
			out, err := w.Allreduce(p, mcp.OpSum, []int64{int64(w.rank), int64(it + 1)})
			return fmt.Sprint(out), err
		},
	}
	cases := []struct {
		op   string
		nic  bool
		want string
	}{
		// Instants in ns of simulated time, each followed by what the call
		// returned.
		{"barrier", false, `rank 0: 220899 ok 383048 ok
rank 1: 219849 ok 384098 ok
rank 2: 219849 ok 384098 ok
rank 3: 218799 ok 385148 ok
rank 4: 209849 ok 394098 ok
rank 5: 208799 ok 395148 ok
rank 6: 208799 ok 395148 ok
rank 7: 207749 ok 396198 ok`},
		{"barrier", true, `rank 0: 139581 ok 217986 ok
rank 1: 138581 ok 218986 ok
rank 2: 138581 ok 218986 ok
rank 3: 137581 ok 219986 ok
rank 4: 126005 ok 231562 ok
rank 5: 125005 ok 232562 ok
rank 6: 125005 ok 232562 ok
rank 7: 124005 ok 233562 ok`},
		{"bcast", false, `rank 0: 40600 "bcast-0" 56600 "bcast-1"
rank 1: 96370 "bcast-0" 125399 "bcast-1"
rank 2: 113157 "bcast-0" 141157 "bcast-1"
rank 3: 153765 "bcast-0" 180828 "bcast-1"
rank 4: 153462 "bcast-0" 184161 "bcast-1"
rank 5: 152927 "bcast-0" 182661 "bcast-1"
rank 6: 166783 "bcast-0" 196721 "bcast-1"
rank 7: 206263 "bcast-0" 228802 "bcast-1"`},
		{"bcast", true, `rank 0: 58995 "bcast-0" 93390 "bcast-1"
rank 1: 73372 "bcast-0" 110797 "bcast-1"
rank 2: 79130 "bcast-0" 116555 "bcast-1"
rank 3: 87749 "bcast-0" 125174 "bcast-1"
rank 4: 93507 "bcast-0" 130932 "bcast-1"
rank 5: 93507 "bcast-0" 130932 "bcast-1"
rank 6: 99265 "bcast-0" 136690 "bcast-1"
rank 7: 102126 "bcast-0" 139551 "bcast-1"`},
		{"allreduce", false, `rank 0: 239486 [28 8] 585258 [28 16]
rank 1: 295448 [28 8] 641220 [28 16]
rank 2: 309372 [28 8] 655144 [28 16]
rank 3: 343410 [28 8] 689182 [28 16]
rank 4: 349334 [28 8] 695106 [28 16]
rank 5: 349334 [28 8] 695106 [28 16]
rank 6: 363258 [28 8] 709030 [28 16]
rank 7: 391372 [28 8] 737144 [28 16]`},
		{"allreduce", true, `rank 0: 114092 [28 8] 230248 [28 16]
rank 1: 129980 [28 8] 246136 [28 16]
rank 2: 136465 [28 8] 252621 [28 16]
rank 3: 145868 [28 8] 262024 [28 16]
rank 4: 152353 [28 8] 268509 [28 16]
rank 5: 152353 [28 8] 268509 [28 16]
rank 6: 158838 [28 8] 274994 [28 16]
rank 7: 161756 [28 8] 277912 [28 16]`},
	}
	const n = 8
	for _, c := range cases {
		name := fmt.Sprintf("%s/nic=%v", c.op, c.nic)
		cfg := DefaultConfig()
		cfg.UseNICBarrier, cfg.UseNICCollectives = c.nic, c.nic
		lines := make([]string, n)
		runWorld(t, n, cfg, func(p *host.Process, w *World) {
			p.Compute(sim.Time(w.rank) * 3 * sim.Microsecond)
			line := fmt.Sprintf("rank %d:", w.rank)
			for it := 0; it < 2; it++ {
				res, err := ops[c.op](p, w, it)
				if err != nil {
					t.Errorf("%s rank %d call %d: %v", name, w.rank, it, err)
					return
				}
				line += fmt.Sprintf(" %d %s", int64(p.Now()), res)
			}
			lines[w.rank] = line
		})
		if got := strings.Join(lines, "\n"); got != c.want {
			t.Errorf("%s:\n got\n%s\n want\n%s", name, got, c.want)
		}
	}
}

package core

import (
	"runtime"
	"slices"
	"testing"

	"gmsim/internal/cluster"
	"gmsim/internal/gm"
	"gmsim/internal/host"
	"gmsim/internal/mcp"
	"gmsim/internal/sim"
)

// TestNeighbourhoodWorkLinear pins the cost of deciding where every rank of
// an 8192-node cell sits: linear in the cell, not quadratic. Each rank's
// Comm derives its neighborhood once from the shared group (and, for the
// topology-aware tree, the shared leaf map); a by-value group cache or a
// per-rank leaf grouping reads 1-3 GB here. A repeat call must hit the
// identity-keyed cache without allocating. Bytes and mallocs are
// deterministic on the one test goroutine; no host timing is involved.
func TestNeighbourhoodWorkLinear(t *testing.T) {
	const (
		n      = 8192
		dim    = 8
		budget = 16 << 20
	)
	g := UniformGroup(n, 2)
	for _, v := range []struct {
		name   string
		alg    mcp.BarrierAlg
		mapped bool
	}{
		{"PE", mcp.PE, false},
		{"GB flat", mcp.GB, false},
		{"GB mapped", mcp.GB, true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var lm *LeafMap
		if v.mapped {
			// clos3 of radix-32 switches: 16 hosts per leaf switch.
			leafOf := make([]int, n)
			for r := range leafOf {
				leafOf[r] = r / 16
			}
			lm = NewLeafMap(leafOf)
		}
		comms := make([]Comm, n)
		for r := range comms {
			if _, err := comms[r].neighbourhood(v.alg, g, r, dim, lm); err != nil {
				t.Fatalf("%s rank %d: %v", v.name, r, err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("%s: %d bytes, %d mallocs", v.name, bytes, mallocs)
		if bytes > budget {
			t.Errorf("%s: all %d ranks' first neighbourhood allocated %d bytes in %d mallocs, budget %d",
				v.name, n, bytes, mallocs, budget)
		}
		c := &comms[n/2]
		if a := testing.AllocsPerRun(100, func() {
			if _, err := c.neighbourhood(v.alg, g, n/2, dim, lm); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: repeat neighbourhood call allocates %v times, want 0", v.name, a)
		}
	}
}

// TestNeighbourhoodCacheIdentity walks one Comm per rank through every way
// the cache key can change — a prefix of the group, an equal-valued group at
// a new address and a same-length one with two members swapped, a leaf map
// set and cleared, a collective (flat tree) between two mapped barriers,
// host level, a PE barrier alternating with a collective — and requires
// after each step that the memoized neighborhood is the one NICBarrierToken
// derives from that step's inputs (and, where the step repeats its
// algorithm's previous inputs, the very one cached then), and that every rank
// completes every step at the instant it does in a run whose cache is
// emptied before each step (a fresh Comm as far as the schedule goes).
func TestNeighbourhoodCacheIdentity(t *testing.T) {
	const n, k, dim = 8, 5, 2
	g := UniformGroup(n, 2)
	same, swapped := UniformGroup(n, 2), UniformGroup(n, 2)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	lm := NewLeafMap([]int{0, 0, 1, 1, 2, 2, 3, 3})

	type runFn func(p *host.Process, c *Comm, g Group, self int) error
	type step struct {
		name string
		alg  mcp.BarrierAlg
		g    Group
		lm   *LeafMap // tree the step must run over
		run  runFn
		// hit: the step's inputs are those of the previous step of its
		// algorithm, so it must find that neighborhood still cached — the
		// same slices, not equal ones — whatever the other algorithm ran in
		// between.
		hit bool
	}
	nic := func(alg mcp.BarrierAlg) runFn {
		return func(p *host.Process, c *Comm, g Group, self int) error { return c.Barrier(p, alg, g, self, dim) }
	}
	setMap := func(m *LeafMap, next runFn) runFn {
		return func(p *host.Process, c *Comm, g Group, self int) error {
			c.SetLeafMap(m)
			return next(p, c, g, self)
		}
	}
	allreduce := func(p *host.Process, c *Comm, g Group, self int) error {
		out, err := c.Collective(p, true, mcp.AllReduce, mcp.OpSum, g, self, dim, EncodeInt64s([]int64{int64(self)}))
		if err == nil && DecodeInt64s(out)[0] != n*(n-1)/2 {
			t.Errorf("rank %d allreduce = %v", self, DecodeInt64s(out))
		}
		return err
	}
	steps := []step{
		{"PE full", mcp.PE, g, nil, nic(mcp.PE), false},
		{"PE g[:k]", mcp.PE, g[:k], nil, nic(mcp.PE), false},
		{"PE equal-valued new group", mcp.PE, same, nil, nic(mcp.PE), false},
		{"PE two members swapped", mcp.PE, swapped, nil, nic(mcp.PE), false},
		{"GB mapped", mcp.GB, g, lm, setMap(lm, nic(mcp.GB)), false},
		{"allreduce (flat)", mcp.GB, g, nil, allreduce, false},
		{"GB mapped again", mcp.GB, g, lm, nic(mcp.GB), false},
		{"host GB mapped", mcp.GB, g, lm, func(p *host.Process, c *Comm, g Group, self int) error {
			return c.HostBarrierGB(p, g, self, dim)
		}, true},
		{"GB flat", mcp.GB, g, nil, setMap(nil, nic(mcp.GB)), false},
		{"PE full again", mcp.PE, g, nil, nic(mcp.PE), false},
		// What a collective cell of experiments.Run does every round: a PE
		// barrier, then a collective over the GB tree. One entry per
		// algorithm: both hit.
		{"allreduce after PE", mcp.GB, g, nil, allreduce, true},
		{"PE after allreduce", mcp.PE, g, nil, nic(mcp.PE), true},
		{"allreduce after PE again", mcp.GB, g, nil, allreduce, true},
	}
	sameSlice := func(a, b []mcp.Endpoint) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}

	run := func(emptyCache bool) [][]sim.Time {
		done := make([][]sim.Time, len(steps))
		for i := range done {
			done[i] = make([]sim.Time, n)
		}
		cl := cluster.New(cluster.DefaultConfig(n))
		cl.SpawnAll(func(p *host.Process) {
			rank := p.Rank()
			port, err := gm.Open(p, cl.MCP(rank), 2)
			if err != nil {
				t.Errorf("rank %d open: %v", rank, err)
				return
			}
			c, err := NewComm(p, port, 4*n+16)
			if err != nil {
				t.Errorf("rank %d comm: %v", rank, err)
				return
			}
			for i, st := range steps {
				self := slices.Index(st.g, g[rank])
				if self < 0 {
					continue
				}
				if emptyCache {
					c.tokCache = [2]tokenCache{}
				}
				before := c.tokCache[st.alg]
				if err := st.run(p, c, st.g, self); err != nil {
					t.Errorf("rank %d %s: %v", rank, st.name, err)
					return
				}
				done[i][rank] = p.Now()
				want, err := NICBarrierToken(st.alg, st.g, self, dim, st.lm)
				if err != nil {
					t.Errorf("rank %d %s: %v", rank, st.name, err)
					return
				}
				tc := &c.tokCache[st.alg]
				if st.hit && !emptyCache && !(sameSlice(tc.peers, before.peers) && sameSlice(tc.children, before.children)) {
					t.Errorf("rank %d %s: neighborhood recomputed, want the cached one", rank, st.name)
				}
				if !slices.Equal(tc.peers, want.Peers) || tc.root != want.Root ||
					tc.parent != want.Parent || !slices.Equal(tc.children, want.Children) {
					t.Errorf("rank %d %s: ran over peers %v root %v parent %v children %v, want %+v",
						rank, st.name, tc.peers, tc.root, tc.parent, tc.children, want)
				}
			}
		})
		cl.Run()
		return done
	}

	reused, fresh := run(false), run(true)
	for i, st := range steps {
		for r := 0; r < n; r++ {
			if slices.Contains(st.g, g[r]) && reused[i][r] == 0 {
				t.Errorf("%s: rank %d never completed", st.name, r)
			}
			if reused[i][r] != fresh[i][r] {
				t.Errorf("%s: rank %d completes at %v on a reused Comm, %v with an empty cache",
					st.name, r, reused[i][r], fresh[i][r])
			}
		}
	}
}

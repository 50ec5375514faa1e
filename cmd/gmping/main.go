// Command gmping validates the simulated GM substrate: point-to-point
// one-way latency and streaming bandwidth between two nodes, the numbers
// the paper's Section 1 quotes for host-based communication ("the one way
// latency of such a host-based message may be as high as 30µs").
//
// Usage:
//
//	gmping [-nic 4.3|7.2] [-iters N] [-sizes 8,64,256,1024,4096]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gmsim/internal/cluster"
	"gmsim/internal/core"
	"gmsim/internal/experiments"
	"gmsim/internal/host"
	"gmsim/internal/service"
	"gmsim/internal/sim"
	"gmsim/internal/stats"
)

func main() {
	s := service.Spec{Nodes: 2}
	flag.StringVar(&s.NIC, "nic", "4.3", "NIC model: 4.3 or 7.2")
	iters := flag.Int("iters", 200, "ping-pong iterations per size")
	sizesArg := flag.String("sizes", "8,64,256,1024,4096", "comma-separated message sizes")
	flag.Parse()
	if *iters < 1 {
		fmt.Fprintln(os.Stderr, "-iters must be at least 1")
		os.Exit(2)
	}

	var cfg cluster.Config
	c, err := s.Canonicalize()
	if err == nil {
		cfg, err = c.Config()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var sizes []int
	for _, s := range strings.Split(*sizesArg, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 0 {
			fmt.Fprintf(os.Stderr, "bad size %q\n", s)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}

	tbl := stats.NewTable(
		fmt.Sprintf("GM point-to-point, 2 nodes, LANai %s", c.NIC),
		"Size (B)", "One-way latency (us)", "Stream bandwidth (MB/s)")
	for _, size := range sizes {
		pp, err := experiments.Run(experiments.Spec{Cluster: cfg, Op: experiments.PingPong, Bytes: size, Iters: *iters}, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		bw := streamBandwidth(cfg, size, *iters)
		tbl.AddRow(size, pp.MeanMicros, bw)
	}
	fmt.Print(tbl.String())
}

// streamBandwidth measures one-directional streaming throughput: rank 0
// pushes iters messages of the given size; bandwidth = bytes / time from
// first send to last delivery.
func streamBandwidth(cfg cluster.Config, size, iters int) float64 {
	s, err := experiments.NewSession(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer s.Close()
	g := core.UniformGroup(2, 2)
	payload := make([]byte, size)
	var t0, t1 sim.Time
	s.Spawn(0, iters+32, func(p *host.Process, comm *core.Comm) error {
		t0 = p.Now()
		for i := 0; i < iters; i++ {
			// Send drains completions whenever the port runs out of
			// send tokens.
			if err := comm.Send(p, g[1], payload); err != nil {
				return err
			}
		}
		return nil
	})
	s.Spawn(1, iters+32, func(p *host.Process, comm *core.Comm) error {
		for i := 0; i < iters; i++ {
			if _, err := comm.RecvFrom(p, g[0]); err != nil {
				return err
			}
		}
		t1 = p.Now()
		return nil
	})
	if err := s.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if t1 <= t0 {
		return 0
	}
	return float64(size*iters) / (t1 - t0).Micros() // B/µs == MB/s
}

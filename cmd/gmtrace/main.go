// Command gmtrace records and prints a full-stack trace of barrier
// traffic: every injection and delivery on the fabric during a window of
// consecutive barriers, per-packet wire latencies, event counts, and the
// Section 2.2 phase decomposition of the traced window — the simulation
// counterpart of a Myrinet line analyzer with host- and firmware-side
// probes attached.
//
// On multi-switch fabrics (-topo) the trace includes every switch hop, so
// trunk crossings are visible per packet. With -chrome the whole timeline
// is exported as Chrome trace-event JSON for Perfetto (ui.perfetto.dev).
//
// The flags fill a service.Spec, built into its run the way simd builds a
// request: -radix 0 is topo.DefaultRadix on a multi-switch fabric.
//
// Usage:
//
//	gmtrace [-n nodes] [-alg pe|gb] [-dim D] [-level nic|host]
//	        [-barriers N] [-skip W] [-topo kind] [-radix R] [-chrome out.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gmsim/internal/experiments"
	"gmsim/internal/service"
	"gmsim/internal/stats"
)

func main() {
	var s service.Spec
	flag.IntVar(&s.Nodes, "n", 4, "cluster size")
	flag.StringVar(&s.Alg, "alg", "pe", "barrier algorithm: pe or gb")
	flag.IntVar(&s.Dim, "dim", 2, "GB tree dimension")
	flag.StringVar(&s.Level, "level", "nic", "barrier placement: nic or host")
	flag.IntVar(&s.Iters, "barriers", 2, "barriers to trace")
	flag.IntVar(&s.Warmup, "skip", 3, "warmup barriers before tracing (at least 1)")
	flag.StringVar(&s.Topo, "topo", "single", "switch topology: single, twoswitch, star, clos2, clos3")
	flag.IntVar(&s.Radix, "radix", 0, "switch port count (0 = topology default)")
	chrome := flag.String("chrome", "", "write the trace as Chrome trace-event JSON to this file")
	flag.Parse()

	// The spec would read zero as "default"; here it is a mistake.
	if s.Iters < 1 || s.Warmup < 1 {
		fmt.Fprintln(os.Stderr, "-barriers and -skip must be at least 1")
		os.Exit(2)
	}
	var spec experiments.Spec
	c, err := s.Canonicalize()
	if err == nil {
		spec, err = c.Experiment()
	}
	var out experiments.Outcome
	if err == nil {
		out, err = experiments.Run(spec, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rec := out.Rec

	fmt.Printf("trace: %d %s-based %s barriers, %d nodes on %s fabric (after %d warmup)\n\n",
		c.Iters, c.Level, c.Alg, c.Nodes, c.Topo, c.Warmup)
	fmt.Print(rec.Dump())

	fmt.Println("\nevent counts:")
	counts := rec.Counts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %d\n", k, counts[k])
	}

	lats := rec.WireLatencies()
	if len(lats) > 0 {
		var s stats.Sample
		for _, l := range lats {
			s.Add(l.Latency().Micros())
		}
		fmt.Printf("\nwire latencies (us): %s\n", s.String())
	}

	// Switch-hop histogram; on one crossbar every packet takes one hop.
	hopHist := map[int]int{}
	trunk := 0
	for _, ph := range rec.PacketHopCounts() {
		hopHist[ph.Hops]++
		if ph.Hops >= 2 {
			trunk++
		}
	}
	if len(hopHist) > 0 {
		fmt.Println("\nswitch hops per packet:")
		depths := make([]int, 0, len(hopHist))
		for d := range hopHist {
			depths = append(depths, d)
		}
		sort.Ints(depths)
		for _, d := range depths {
			fmt.Printf("  %d hop(s): %d packets\n", d, hopHist[d])
		}
		fmt.Printf("trunk crossings: %d packets traversed 2+ switches\n", trunk)
	}

	fmt.Printf("\nSection 2.2 decomposition of the traced window at rank 0 (%d spans):\n",
		rec.Phases().Len())
	fmt.Print(out.Decomp.Table())

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteChrome(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote Chrome trace to %s (open at ui.perfetto.dev)\n", *chrome)
	}
}

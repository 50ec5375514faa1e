// Command timing reproduces Figure 2 and the Section 2.2 analytical model:
// it prints proportional timing diagrams for the host-based and NIC-based
// barriers, evaluates Equations 1-3, and compares the model's predictions
// with the discrete-event simulation.
//
// Usage:
//
//	timing [-n nodes] [-nic 4.3|7.2] [-width cols]
package main

import (
	"flag"
	"fmt"
	"os"

	"gmsim/internal/experiments"
	"gmsim/internal/model"
	"gmsim/internal/service"
	"gmsim/internal/stats"
)

func main() {
	n := flag.Int("n", 8, "barrier size (power of two)")
	s := service.Spec{Iters: 100}
	flag.StringVar(&s.NIC, "nic", "4.3", "NIC model: 4.3 or 7.2")
	width := flag.Int("width", 72, "diagram width in columns")
	flag.Parse()

	// The simulated side of the comparison: NIC- and host-based PE at each
	// size, built (and -nic checked) before anything prints.
	sizes := []int{2, 4, 8, 16}
	var c service.Spec
	var cells []experiments.Spec
	for _, size := range sizes {
		for _, level := range []string{"nic", "host"} {
			s.Nodes, s.Level = size, level
			var spec experiments.Spec
			var err error
			if c, err = s.Canonicalize(); err == nil {
				spec, err = c.Experiment()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			cells = append(cells, spec)
		}
	}
	b := model.PaperEstimate43()
	if c.NIC == "7.2" {
		b = model.PaperEstimate72()
	}

	fmt.Printf("Figure 2(a): host-based barrier timing, one node, %d processes, LANai %s\n\n", *n, c.NIC)
	segs, err := b.TimingDiagram("host", *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(model.RenderDiagram(segs, *width))

	fmt.Printf("\nFigure 2(b): NIC-based barrier timing, one node, %d processes, LANai %s\n\n", *n, c.NIC)
	segs, err = b.TimingDiagram("nic", *n)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Print(model.RenderDiagram(segs, *width))

	fmt.Println("\nSection 2.2 model (Equations 1-3) vs discrete-event simulation:")
	tbl := stats.NewTable("", "Nodes", "Eq1 host (us)", "sim host (us)", "Eq2 NIC (us)", "sim NIC (us)", "Eq3 factor", "sim factor")
	res, err := experiments.RunAll(cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, size := range sizes {
		simNIC, simHost := res[2*i].MeanMicros, res[2*i+1].MeanMicros
		tbl.AddRow(size, b.HostBarrier(size), simHost, b.NICBarrier(size), simNIC,
			b.Factor(size), simHost/simNIC)
	}
	fmt.Print(tbl.String())
}

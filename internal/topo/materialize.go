package topo

import (
	"gmsim/internal/network"
)

// Shape is the fabric the plan describes, as network.New sizes its blocks:
// the switches and their ports summed, the NICs and the trunks.
func (t *Topology) Shape() network.Shape {
	ports := 0
	for _, p := range t.SwitchPorts {
		ports += p
	}
	return network.Shape{Switches: len(t.SwitchPorts), Ports: ports, NICs: len(t.NICs), Trunks: len(t.Trunks)}
}

// Materialize realizes the wiring plan on a fabric built to its Shape:
// switches are added in index order (so fabric switch IDs equal plan
// indices), then trunks are cabled in plan order. The caller attaches NICs
// afterwards in node order using NICs[i] — this exact sequence keeps fabric
// link IDs, and therefore every seeded per-link random stream, reproducible
// for a given plan.
//
// sp supplies the per-switch parameters other than Ports (which the plan
// dictates per switch); lp is used for the trunk cables.
func (t *Topology) Materialize(f *network.Fabric, sp network.SwitchParams, lp network.LinkParams) []*network.Switch {
	sws := make([]*network.Switch, len(t.SwitchPorts))
	for i, ports := range t.SwitchPorts {
		p := sp
		p.Ports = ports
		sws[i] = f.AddSwitch(p)
	}
	for _, tr := range t.Trunks {
		f.ConnectSwitches(sws[tr.A], tr.APort, sws[tr.B], tr.BPort, lp)
	}
	return sws
}

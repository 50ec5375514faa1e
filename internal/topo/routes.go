package topo

import "fmt"

// Route returns the deterministic source route from node src to node dst:
// the port-byte sequence the sending NIC prepends, derived from address
// arithmetic (algroute.go) and remembered per ordered pair. The returned
// slice is shared — callers must not modify it (the firmware copies it into
// each packet).
func (t *Topology) Route(src, dst int) ([]byte, error) {
	n := len(t.NICs)
	if src < 0 || src >= n {
		return nil, fmt.Errorf("topo: no node %d", src)
	}
	if dst < 0 || dst >= n {
		return nil, fmt.Errorf("topo: no node %d", dst)
	}
	return t.routes.route(src, dst), nil
}

// RouteTable computes the routes between every ordered node pair, indexed
// [src][dst], bypassing the per-pair memo: a full table read would only
// bloat it. The error is always nil; the signature predates the one routing
// path and callers bind it.
func (t *Topology) RouteTable() ([][][]byte, error) {
	out := make([][][]byte, len(t.NICs))
	for s := range t.NICs {
		row := make([][]byte, len(t.NICs))
		for d := range t.NICs {
			row[d] = t.routes.compute(s, d)
		}
		out[s] = row
	}
	return out, nil
}

// Stats summarizes a topology's shape and routing geometry.
type Stats struct {
	Kind     Kind
	Nodes    int
	Switches int
	Trunks   int
	// Diameter is the longest shortest route between two distinct NICs,
	// in switch hops (route bytes).
	Diameter int
	// AvgHops is the mean route length over ordered distinct pairs.
	AvgHops float64
	// HopsHistogram counts ordered distinct NIC pairs by route length;
	// index = switch hops.
	HopsHistogram []int
	// BisectionLinks is the trunk count crossing an even split of the
	// leaf switches (the crossbar's internal half for Single).
	BisectionLinks int
}

// ComputeStats derives the topology statistics in closed form (an
// 8192-node table walk would visit 67M routes).
func (t *Topology) ComputeStats() Stats {
	st := Stats{
		Kind:           t.Spec.Kind,
		Nodes:          t.Nodes(),
		Switches:       t.Switches(),
		Trunks:         len(t.Trunks),
		BisectionLinks: t.BisectionLinks,
	}
	t.routes.stats(&st)
	return st
}

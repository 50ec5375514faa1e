package topo

import "fmt"

// Route returns the deterministic source route from node src to node dst:
// the port-byte sequence the sending NIC prepends, derived from address
// arithmetic (algroute.go). It allocates nothing: the slice is a read-only
// view of the plan's route table, and its capacity ends where the route
// does, so a caller's append copies instead of overwriting the next route.
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

// RouteTable returns the routes between every ordered node pair, indexed
// [src][dst]: Route's read-only views, so the table costs its n + 1 slice
// headers' arrays and no route bytes. The error is always nil; the
// signature predates the one routing path and callers bind it.
func (t *Topology) RouteTable() ([][][]byte, error) {
	out := make([][][]byte, len(t.NICs))
	for s := range t.NICs {
		row := make([][]byte, len(t.NICs))
		for d := range t.NICs {
			row[d] = t.routes.route(s, d)
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

package core

import (
	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// InitLabels is the initial Phase I labeling of a main circuit, computed
// once and shared read-only by any number of matchers over that circuit.
// Every label constructor is a pure hash of its inputs (type name, degree,
// global-net name), so the labeling is identical no matter which matcher
// computes it — precomputing it is safe as long as the circuit's structure
// and global marks do not change afterwards.
//
// This is what lets a library sweep pay the O(devices+nets) initial
// labeling cost once instead of once per pattern: each per-pattern matcher
// adopts the shared slice through Options.InitLabels and copies from it
// instead of rebuilding it.
type InitLabels struct {
	g       *graph.Circuit
	globals int
	lab     []label.Value
}

// NewInitLabels computes the initial labeling of g: devices get their type
// label folded with the fixed labels of global nets on their terminals,
// global nets get name-keyed labels, and every other net is labeled by its
// degree.  This is exactly what a Matcher computes at the start of each
// run (initMainLabels), minus the ablation switches (matchers running with
// AblateGlobalFold ignore shared labelings).
func NewInitLabels(g *graph.Circuit) *InitLabels {
	sp := label.NewSpace(g)
	lab := make([]label.Value, sp.Size())
	types := make(map[string]label.Value, 4)
	typeOf := func(typ string) label.Value {
		if v, ok := types[typ]; ok {
			return v
		}
		v := label.TypeLabel(typ)
		types[typ] = v
		return v
	}
	globals := 0
	for _, d := range g.Devices {
		lab[sp.DevVID(d)] = foldedDeviceLabel(typeOf, d)
	}
	for _, n := range g.Nets {
		v := sp.NetVID(n)
		if n.Global {
			lab[v] = label.GlobalLabel(n.Name)
			globals++
		} else {
			lab[v] = label.DegreeLabel(n.Degree())
		}
	}
	return &InitLabels{g: g, globals: globals, lab: lab}
}

// Fits reports whether the precomputed labeling applies to g as currently
// marked.  The circuit must be the same object and have the same number of
// global nets: global marks are monotonic (nothing ever clears them), so an
// equal count means the same set of globals and therefore the same labels.
func (il *InitLabels) Fits(g *graph.Circuit) bool {
	if il == nil || il.g != g {
		return false
	}
	globals := 0
	for _, n := range g.Nets {
		if n.Global {
			globals++
		}
	}
	return globals == il.globals
}

// initMainLabels writes the initial Phase I labeling of the main circuit c
// into lab in one flat pass over its view g, and marks c's global nets
// g1Global in state.  A net gets DegreeLabel of its row length, or its
// GlobalLabel when global; a device gets its view type label plus, when
// fold is set, Σ Mul[e]·label over its global neighbors.  Label sums wrap
// and commute, so the result is bit-identical to NewInitLabels' pointer
// walk (TestInitMainLabelsMatchesNewInitLabels).
func initMainLabels(g *csr.Graph, c *graph.Circuit, lab []label.Value, state []g1State, fold bool) {
	nd := g.NumDevs
	globals := false
	for i, n := range c.Nets {
		v := nd + i
		if n.Global {
			lab[v] = label.GlobalLabel(n.Name)
			state[v] = g1Global
			globals = true
		} else {
			lab[v] = label.DegreeLabel(int(g.Start[v+1] - g.Start[v]))
		}
	}
	copy(lab[:nd], g.DevType)
	if !fold || !globals {
		return
	}
	start, adj, mul := g.Start, g.Adj, g.Mul
	for v := 0; v < nd; v++ {
		acc := lab[v]
		for e := start[v]; e < start[v+1]; e++ {
			if u := adj[e]; state[u] == g1Global {
				acc += label.Value(mul[e] * uint64(lab[u]))
			}
		}
		lab[v] = acc
	}
}

// foldedDeviceLabel is initialDeviceLabel without a Matcher: the device's
// type label folded with the fixed labels of global nets on its terminals.
func foldedDeviceLabel(typeOf func(string) label.Value, d *graph.Device) label.Value {
	acc := typeOf(d.Type)
	for _, pin := range d.Pins {
		if pin.Net.Global {
			acc = label.Combine(acc, pin.Class, label.GlobalLabel(pin.Net.Name))
		}
	}
	return acc
}

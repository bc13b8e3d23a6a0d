package core

import (
	"slices"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// InitLabels is the initial Phase I labeling of a main circuit, computed
// once and shared read-only by any number of matchers over that circuit.
// Every label constructor is a pure hash of its inputs (type name, degree,
// global-net name), so the labeling is identical no matter which matcher
// computes it — precomputing it is safe as long as the circuit's structure
// does not change afterwards and the runs that adopt it use the same global
// set.
//
// This is what lets a library sweep pay the O(devices+nets) initial
// labeling cost once instead of once per pattern: each per-pattern matcher
// adopts the shared slice through Options.InitLabels and copies from it
// instead of rebuilding it.
type InitLabels struct {
	g       *graph.Circuit
	globals []int32 // the global nets labeled, ascending
	lab     []label.Value
}

// NewInitLabels computes the initial labeling of g with the special signals
// globals plus the nets marked global on g: devices get their type label
// folded with the fixed labels of global nets on their terminals, global
// nets get name-keyed labels, and every other net is labeled by its degree.
// This is exactly what a Matcher computes at the start of a run with that
// global set (initMainLabels).  g is only read.
func NewInitLabels(g *graph.Circuit, globals ...string) *InitLabels {
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
	_, gGlobals := globalSet(g, nil, globals)
	global := make([]bool, len(g.Nets))
	for _, i := range gGlobals {
		global[i] = true
	}
	for _, d := range g.Devices {
		lab[sp.DevVID(d)] = foldedDeviceLabel(typeOf, d, global)
	}
	for i, n := range g.Nets {
		v := sp.NetVID(n)
		if global[i] {
			lab[v] = label.GlobalLabel(n.Name)
		} else {
			lab[v] = label.DegreeLabel(n.Degree())
		}
	}
	return &InitLabels{g: g, globals: gGlobals, lab: lab}
}

// Fits reports whether the precomputed labeling applies to a run over g
// whose global nets are gGlobals (ascending): the circuit must be the same
// object and the global set the same.
func (il *InitLabels) Fits(g *graph.Circuit, gGlobals []int32) bool {
	return il != nil && il.g == g && slices.Equal(il.globals, gGlobals)
}

// initMainLabels writes the initial Phase I labeling of the main circuit c
// into lab in one flat pass over its view g, and marks the run's global
// nets (gGlobals, net indices) g1Global in state.  A net gets DegreeLabel of
// its row length, or its GlobalLabel when global; a device gets its view
// type label plus, when fold is set, Σ Mul[e]·label over its global
// neighbors.  Label sums wrap and commute, so the result is bit-identical
// to NewInitLabels' pointer walk (TestInitMainLabelsMatchesNewInitLabels).
func initMainLabels(g *csr.Graph, c *graph.Circuit, lab []label.Value, state []g1State, fold bool, gGlobals []int32) {
	nd := g.NumDevs
	for v := nd; v < g.Size(); v++ {
		lab[v] = label.DegreeLabel(int(g.Start[v+1] - g.Start[v]))
	}
	for _, i := range gGlobals {
		v := nd + int(i)
		lab[v] = label.GlobalLabel(c.Nets[i].Name)
		state[v] = g1Global
	}
	copy(lab[:nd], g.DevType)
	if !fold || len(gGlobals) == 0 {
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
// type label folded with the fixed labels of the global nets (global, by
// net index) on its terminals.
func foldedDeviceLabel(typeOf func(string) label.Value, d *graph.Device, global []bool) label.Value {
	acc := typeOf(d.Type)
	for _, pin := range d.Pins {
		if global[pin.Net.Index] {
			acc = label.Combine(acc, pin.Class, label.GlobalLabel(pin.Net.Name))
		}
	}
	return acc
}

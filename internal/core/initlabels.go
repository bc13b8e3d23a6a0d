package core

import (
	"slices"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// NewInitLabels computes the initial labeling of g with the special signals
// globals plus the nets marked global on g, one label per VID: devices get
// their type label folded with the fixed labels of global nets on their
// terminals, global nets get name-keyed labels, and every other net is
// labeled by its degree.  It walks the circuit's pointers, and is the
// reference the flat pass a run makes over its CSR view (initMainLabels) is
// held to.  g is only read.
func NewInitLabels(g *graph.Circuit, globals ...string) []label.Value {
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
	return lab
}

// initialLabels writes the initial Phase I labeling of the main circuit c
// into lab and marks the run's global nets (gGlobals, ascending) g1Global
// in state.  The view caches the labeling of the last global set a run
// asked for: a run whose global nets are the cached ones, at the same
// indices under the same names, copies it, and any other run computes its
// own with initMainLabels and caches a copy.  Concurrent misses may each
// compute and cache equal labelings.  Runs with the global fold ablated
// bypass the cache.
func initialLabels(g *csr.Graph, c *graph.Circuit, lab []label.Value, state []g1State, gGlobals []int32) {
	if ablateGlobalFold {
		initMainLabels(g, c, lab, state, false, gGlobals)
		return
	}
	if l := g.Labeling(); l != nil && labelingFits(l, c, gGlobals) {
		copy(lab, l.Labels)
		for _, i := range gGlobals {
			state[g.NumDevs+int(i)] = g1Global
		}
		return
	}
	initMainLabels(g, c, lab, state, true, gGlobals)
	names := make([]string, len(gGlobals))
	for k, i := range gGlobals {
		names[k] = c.Nets[i].Name
	}
	g.CacheLabeling(&csr.Labeling{Globals: gGlobals, Names: names, Labels: slices.Clone(lab)})
}

// labelingFits reports whether l was computed under the global nets
// gGlobals of c: the same net indices, named as c names them.
func labelingFits(l *csr.Labeling, c *graph.Circuit, gGlobals []int32) bool {
	if !slices.Equal(l.Globals, gGlobals) {
		return false
	}
	for k, i := range gGlobals {
		if l.Names[k] != c.Nets[i].Name {
			return false
		}
	}
	return true
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

package csr

import (
	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// RebuildFraction is the degradation threshold of Patch: when more than
// this fraction of the new circuit's vertices are dirty, splicing rows one
// by one stops paying for itself and Patch falls back to a full New build.
// Variable so tests and benchmarks can force either path.
var RebuildFraction = 0.25

// Remap describes how the vertices of an edited circuit moved: old index to
// new index for devices and nets separately, with -1 marking a removed
// vertex.  Edits are monotone (adds append, removes compact preserving
// order), so a remap never reorders survivors.
type Remap struct {
	Dev []int32 // old device index -> new device index, -1 = removed
	Net []int32 // old net index -> new net index, -1 = removed
}

// Patch builds the CSR view of the edited circuit c, splicing the adjacency
// rows of unedited vertices from the previous view instead of re-walking
// their pins and rehashing their terminal classes.  dirtyDevs/dirtyNets
// list the new-index devices and nets whose adjacency may differ from the
// old view (including every added vertex); every other surviving vertex
// must have its pin/connection list unchanged up to the index remap.
//
// The result is bit-identical to New(c): a spliced row holds the same
// neighbor indices (remapped) and the same multipliers in the same order,
// because circuit edits preserve the relative order of surviving pins and
// connections, and a clean device keeps its type label, because edits
// replace devices rather than retype them.  rebuilt reports whether the degradation threshold forced a
// full New build instead (the caller feeds it into the csr-rebuild metric).
func Patch(old *Graph, c *graph.Circuit, rm Remap, dirtyDevs, dirtyNets []int32) (g *Graph, rebuilt bool) {
	nd, nn := c.NumDevices(), c.NumNets()
	if old == nil || len(rm.Dev) != old.NumDevs || len(rm.Net) != old.NumNets {
		return New(c), true
	}
	if float64(len(dirtyDevs)+len(dirtyNets)) > RebuildFraction*float64(nd+nn) {
		return New(c), true
	}

	dirty := make([]bool, nd+nn)
	for _, v := range dirtyDevs {
		dirty[v] = true
	}
	for _, v := range dirtyNets {
		dirty[nd+int(v)] = true
	}
	// oldRow[v] = old vertex id of clean new vertex v, -1 when the row must
	// be rebuilt from the circuit (dirty or added).
	oldRow := make([]int32, nd+nn)
	for i := range oldRow {
		oldRow[i] = -1
	}
	for ov, nv := range rm.Dev {
		if nv >= 0 && !dirty[nv] {
			oldRow[nv] = int32(ov)
		}
	}
	for ov, nv := range rm.Net {
		if nv >= 0 && !dirty[nd+int(nv)] {
			oldRow[nd+int(nv)] = int32(old.NumDevs + ov)
		}
	}

	size := nd + nn
	g = &Graph{NumDevs: nd, NumNets: nn, Start: make([]int32, size+1), DevType: make([]label.Value, nd)}
	for _, d := range c.Devices {
		g.Start[d.Index+1] = int32(len(d.Pins))
	}
	for _, n := range c.Nets {
		g.Start[nd+n.Index+1] = int32(len(n.Conns))
	}
	for v := 0; v < size; v++ {
		g.Start[v+1] += g.Start[v]
	}
	total := g.Start[size]
	g.Adj = make([]int32, total)
	g.Mul = make([]uint64, total)

	var muls [256]uint64
	mulOf := func(class graph.TermClass) uint64 {
		if muls[class] == 0 {
			muls[class] = label.ClassMul(class)
		}
		return muls[class]
	}

	// Old adjacency values are old vids; translate them to new vids once via
	// a flat table instead of chasing pointers per edge.
	vidMap := make([]int32, old.Size())
	for ov, nv := range rm.Dev {
		vidMap[ov] = nv
	}
	for ov, nv := range rm.Net {
		if nv < 0 {
			vidMap[old.NumDevs+ov] = -1
		} else {
			vidMap[old.NumDevs+ov] = int32(nd) + nv
		}
	}

	var types typeMemo
	for v := 0; v < size; v++ {
		e, ov := g.Start[v], oldRow[v]
		if v < nd {
			if ov >= 0 {
				g.DevType[v] = old.DevType[ov]
			} else {
				g.DevType[v] = types.label(c.Devices[v].Type)
			}
		}
		if ov >= 0 {
			lo, hi := old.Start[ov], old.Start[ov+1]
			copy(g.Mul[e:], old.Mul[lo:hi])
			for k := lo; k < hi; k++ {
				g.Adj[e] = vidMap[old.Adj[k]]
				e++
			}
			continue
		}
		if v < nd {
			for _, pin := range c.Devices[v].Pins {
				g.Adj[e] = int32(nd + pin.Net.Index)
				g.Mul[e] = mulOf(pin.Class)
				e++
			}
		} else {
			for _, conn := range c.Nets[v-nd].Conns {
				g.Adj[e] = int32(conn.Dev.Index)
				g.Mul[e] = mulOf(conn.Dev.Pins[conn.Pin].Class)
				e++
			}
		}
	}
	return g, false
}

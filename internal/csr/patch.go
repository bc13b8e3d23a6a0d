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
// replace devices rather than retype them.  rebuilt reports whether the
// degradation threshold forced a full New build instead (the caller feeds
// it into the csr-rebuild metric).
//
// Cost: the circuit is read only for dirty and added vertices.  Clean rows
// take their lengths from the old view and are copied in maximal runs of
// consecutive vertices, one copy per run; their neighbor ids are
// translated only when the remap moves a vertex.  An edit that only
// rewires and appends, or removes vertices from the end, moves none.
func Patch(old *Graph, c *graph.Circuit, rm Remap, dirtyDevs, dirtyNets []int32) (g *Graph, rebuilt bool) {
	nd, nn := c.NumDevices(), c.NumNets()
	if old == nil || len(rm.Dev) != old.NumDevs || len(rm.Net) != old.NumNets {
		return New(c), true
	}
	if float64(len(dirtyDevs)+len(dirtyNets)) > RebuildFraction*float64(nd+nn) {
		return New(c), true
	}

	// newVID maps an old vertex id to its new one, -1 when removed.
	odn := old.NumDevs
	newVID := func(ov int32) int32 {
		if ov < int32(odn) {
			return rm.Dev[ov]
		}
		if nv := rm.Net[ov-int32(odn)]; nv >= 0 {
			return int32(nd) + nv
		}
		return -1
	}
	moved := nd != odn
	size := nd + nn
	g = &Graph{NumDevs: nd, NumNets: nn, Start: make([]int32, size+1), DevType: make([]label.Value, nd)}
	// clean[v]: new vertex v survived the edit and is not dirty, so its
	// row, and its length in Start, is the old one.
	clean := make([]bool, size)
	for ov, nv := range rm.Dev {
		if nv >= 0 {
			clean[nv] = true
			g.Start[nv+1] = old.Start[ov+1] - old.Start[ov]
			moved = moved || nv != int32(ov)
		}
	}
	for ov, nv := range rm.Net {
		if nv >= 0 {
			clean[nd+int(nv)] = true
			g.Start[nd+int(nv)+1] = old.Start[odn+ov+1] - old.Start[odn+ov]
			moved = moved || nv != int32(ov)
		}
	}
	for _, v := range dirtyDevs {
		clean[v] = false
	}
	for _, v := range dirtyNets {
		clean[nd+int(v)] = false
	}
	for v, ok := range clean {
		if ok {
			continue
		}
		if v < nd {
			g.Start[v+1] = int32(len(c.Devices[v].Pins))
		} else {
			g.Start[v+1] = int32(len(c.Nets[v-nd].Conns))
		}
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
	var types typeMemo
	// fill writes row v from the circuit.
	fill := func(v int) {
		e := g.Start[v]
		if v < nd {
			d := c.Devices[v]
			g.DevType[v] = types.label(d.Type)
			for _, pin := range d.Pins {
				g.Adj[e] = int32(nd + pin.Net.Index)
				g.Mul[e] = mulOf(pin.Class)
				e++
			}
			return
		}
		for _, conn := range c.Nets[v-nd].Conns {
			g.Adj[e] = int32(conn.Dev.Index)
			g.Mul[e] = mulOf(conn.Dev.Pins[conn.Pin].Class)
			e++
		}
	}

	// Walk the old vertices in order: survivors come out in new-id order
	// (remaps never reorder), so the rows between two clean runs are the
	// dirty and added ones, filled from the circuit.
	v := 0
	for ov, oldSize := int32(0), int32(old.Size()); ov < oldSize; {
		nv := newVID(ov)
		if nv < 0 || !clean[nv] {
			ov++
			continue
		}
		for ; v < int(nv); v++ {
			fill(v)
		}
		n := int32(1)
		for ov+n < oldSize && newVID(ov+n) == nv+n && clean[nv+n] {
			n++
		}
		lo, hi, e := old.Start[ov], old.Start[ov+n], g.Start[nv]
		copy(g.Mul[e:], old.Mul[lo:hi])
		if moved {
			for k, a := range old.Adj[lo:hi] {
				g.Adj[e+int32(k)] = newVID(a)
			}
		} else {
			copy(g.Adj[e:], old.Adj[lo:hi])
		}
		if int(nv) < nd {
			k := min(n, int32(nd)-nv)
			copy(g.DevType[nv:nv+k], old.DevType[ov:ov+k])
		}
		ov += n
		v = int(nv + n)
	}
	for ; v < size; v++ {
		fill(v)
	}
	return g, false
}

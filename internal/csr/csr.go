// Package csr provides a flat compressed-sparse-row view of a circuit for
// the data-oriented Phase I engine: integer vertex ids, one contiguous
// adjacency array, and the per-edge class multipliers precomputed, so the
// relabeling hot loop touches three flat arrays instead of chasing
// Device/Net/Pin/Conn pointers and rehashing terminal classes.
//
// Vertices use the same dense VID space as label.Space: devices occupy
// [0, NumDevs) and nets occupy [NumDevs, NumDevs+NumNets), each in circuit
// index order, so a label slice indexed by VID works unchanged against both
// representations.  The view's structure — connectivity, terminal classes
// and each device's type label, not global marks or any other mutable
// state — is immutable once built, so one view may be shared by any number
// of concurrent readers.  A device's type never changes in place (edits
// replace devices), so the type labels stay valid for the life of the
// view, and csr.Patch carries them across edits.
//
// A main circuit's view is also the handle that matchers over the circuit
// share: it carries a scratch pool for the matcher's per-run state and
// caches one initial labeling (see Labeling), both safe for concurrent
// use.  A pattern's view (Build) carries no pool.
package csr

import (
	"sync"
	"sync/atomic"

	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// Graph is the CSR view of one circuit.  Edges are stored in both
// directions: a device row lists its pin nets in pin order, and a net row
// lists its connected devices in connection order.  Mul[e] is the
// label.ClassMul of the terminal class the edge passes through; the class
// belongs to the pin, so the multiplier is the same in both directions.
type Graph struct {
	NumDevs int
	NumNets int

	// Start[v]..Start[v+1] index the edge arrays for vertex v.
	Start []int32
	// Adj[e] is the neighbor VID of edge e.
	Adj []int32
	// Mul[e] is the precomputed label.ClassMul for edge e.
	Mul []uint64
	// DevType[v] is label.TypeLabel of device v's type, for v < NumDevs.
	// Pin counts and net degrees need no array of their own: they are the
	// row lengths Start[v+1]-Start[v].
	DevType []label.Value

	// Scratch recycles per-run matching state across the matchers of the
	// view (internal/core keeps its Phase II scratch there, and checks that
	// a recycled value fits the view); it is nil on a view from Build.  It
	// is allocated apart from the view, and nothing it holds points back at
	// the view: the runtime keeps a used sync.Pool reachable until the
	// second GC after its last use, and a pool embedded in the view would
	// keep the view alive with it.
	Scratch *sync.Pool

	labeling atomic.Pointer[Labeling]
}

// Labeling is an initial Phase I labeling of a view's circuit under one
// set of special signals: Labels holds one label per vertex, computed with
// the nets at the ascending indices Globals, named Names, as the global
// nets.  The view stores it as plain data; internal/core computes it and
// decides when it applies.  A cached Labeling is never changed.
type Labeling struct {
	Globals []int32
	Names   []string
	Labels  []label.Value
}

// Labeling returns the labeling the view caches, nil when no run has
// cached one.
func (g *Graph) Labeling() *Labeling { return g.labeling.Load() }

// CacheLabeling makes l the view's cached labeling in place of the
// previous one.  The caller must not change l afterwards.
func (g *Graph) CacheLabeling(l *Labeling) { g.labeling.Store(l) }

// New builds the CSR view of c, with a scratch pool for the matchers that
// share it.  Devices and nets must have their Index fields dense and in
// slice order (graph.Circuit.Validate checks this), as label.Space assumes
// the same.
func New(c *graph.Circuit) *Graph {
	g := Build(c)
	g.Scratch = new(sync.Pool)
	return g
}

// Build is New without the scratch pool, for a view no matcher keeps
// per-run state in: a pattern's.
func Build(c *graph.Circuit) *Graph {
	nd, nn := c.NumDevices(), c.NumNets()
	size := nd + nn
	g := &Graph{NumDevs: nd, NumNets: nn, Start: make([]int32, size+1), DevType: make([]label.Value, nd)}
	var types typeMemo
	for _, d := range c.Devices {
		g.Start[d.Index+1] = int32(len(d.Pins))
		g.DevType[d.Index] = types.label(d.Type)
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

	// Terminal classes are tiny (uint8) and few; memoize their multipliers
	// during the build.  ClassMul is forced odd, so 0 can mark "unset".
	var muls [256]uint64
	mulOf := func(class graph.TermClass) uint64 {
		if muls[class] == 0 {
			muls[class] = label.ClassMul(class)
		}
		return muls[class]
	}

	e := int32(0)
	for _, d := range c.Devices {
		for _, pin := range d.Pins {
			g.Adj[e] = int32(nd + pin.Net.Index)
			g.Mul[e] = mulOf(pin.Class)
			e++
		}
	}
	for _, n := range c.Nets {
		for _, conn := range n.Conns {
			g.Adj[e] = int32(conn.Dev.Index)
			g.Mul[e] = mulOf(conn.Dev.Pins[conn.Pin].Class)
			e++
		}
	}
	return g
}

// typeMemo remembers the type labels of the last two distinct device types
// seen: circuits list devices in runs of one type, often alternating
// between two (pmos and nmos), so a build hashes a handful of type names
// instead of one per device, without a lookup table.
type typeMemo struct {
	typ [2]string
	lab [2]label.Value
}

func (m *typeMemo) label(typ string) label.Value {
	if typ != m.typ[0] || m.lab[0] == 0 {
		m.miss(typ)
	}
	return m.lab[0]
}

// miss makes typ the most recent type, hashing it unless it was the other
// remembered one.
func (m *typeMemo) miss(typ string) {
	if typ != m.typ[1] || m.lab[1] == 0 {
		m.typ[1], m.lab[1] = typ, label.TypeLabel(typ)
	}
	m.typ[0], m.typ[1] = m.typ[1], m.typ[0]
	m.lab[0], m.lab[1] = m.lab[1], m.lab[0]
}

// Size returns the total number of vertices.
func (g *Graph) Size() int { return g.NumDevs + g.NumNets }

// NumEdges returns the number of stored (directed) edges: twice the number
// of device pins.
func (g *Graph) NumEdges() int { return len(g.Adj) }

// Fits reports whether the view's vertex counts match c, the cheap sanity
// check for a caller-supplied prebuilt view.
func (g *Graph) Fits(c *graph.Circuit) bool {
	return g.NumDevs == c.NumDevices() && g.NumNets == c.NumNets()
}

// Relabel returns the Fig. 3 relabeling of vertex v over the label slice
// lab: old(v) + Σ classMul(e)·lab(neighbor(e)).  Addition and
// multiplication wrap mod 2^64 and addition is commutative, so the result
// is independent of edge order and bit-identical to folding the same
// neighbors through label.Combine.
func (g *Graph) Relabel(v int32, lab []label.Value) label.Value {
	acc := lab[v]
	for e := g.Start[v]; e < g.Start[v+1]; e++ {
		acc += label.Value(g.Mul[e] * uint64(lab[g.Adj[e]]))
	}
	return acc
}

package csr

import (
	"fmt"
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/label"
)

var mosCls = []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}

// chain builds a deterministic pseudo-random transistor mesh exercising
// varied degrees and terminal classes.  (The gen package cannot be used
// here: it depends on internal/core, which imports this package.)
func chain(n int) *graph.Circuit {
	c := graph.New("chain")
	nets := make([]*graph.Net, n+3)
	for i := range nets {
		nets[i] = c.AddNet(fmt.Sprintf("n%d", i))
	}
	rnd := uint64(12345)
	next := func(m int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int(rnd>>33) % m
	}
	for i := 0; i < n; i++ {
		typ := "nmos"
		if i%3 == 0 {
			typ = "pmos"
		}
		c.MustAddDevice(fmt.Sprintf("m%d", i), typ, mosCls,
			[]*graph.Net{nets[i], nets[next(len(nets))], nets[i+3]})
	}
	return c
}

// TestRelabelMatchesPointerWalk checks the CSR relabeling kernel against
// the definitional pointer-walking fold through label.Combine.
func TestRelabelMatchesPointerWalk(t *testing.T) {
	c := chain(120)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	g := New(c)
	sp := label.NewSpace(c)
	if !g.Fits(c) {
		t.Fatalf("Fits = false for the graph's own circuit")
	}
	if g.Size() != sp.Size() {
		t.Fatalf("Size = %d, want %d", g.Size(), sp.Size())
	}
	if g.NumEdges() != 2*c.NumPins() {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), 2*c.NumPins())
	}

	// Arbitrary deterministic labels per vertex.
	lab := make([]label.Value, sp.Size())
	for v := range lab {
		lab[v] = label.DegreeLabel(v + 7)
	}

	for _, dev := range c.Devices {
		v := sp.DevVID(dev)
		want := lab[v]
		for _, pin := range dev.Pins {
			want = label.Combine(want, pin.Class, lab[sp.NetVID(pin.Net)])
		}
		if got := g.Relabel(int32(v), lab); got != want {
			t.Fatalf("device %s: Relabel = %#x, want %#x", dev.Name, got, want)
		}
	}
	for _, n := range c.Nets {
		v := sp.NetVID(n)
		want := lab[v]
		for _, conn := range n.Conns {
			want = label.Combine(want, conn.Dev.Pins[conn.Pin].Class, lab[sp.DevVID(conn.Dev)])
		}
		if got := g.Relabel(int32(v), lab); got != want {
			t.Fatalf("net %s: Relabel = %#x, want %#x", n.Name, got, want)
		}
	}
}

func TestFitsRejectsDifferentCircuit(t *testing.T) {
	a := graph.New("a")
	n := a.AddNet("x")
	a.MustAddDevice("r1", "res", []graph.TermClass{0, 0}, []*graph.Net{n, a.AddNet("y")})
	b := graph.New("b")
	b.AddNet("x")
	g := New(a)
	if g.Fits(b) {
		t.Fatalf("Fits accepted a circuit with different vertex counts")
	}
}

func TestEmptyCircuit(t *testing.T) {
	g := New(graph.New("empty"))
	if g.Size() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty circuit: Size=%d NumEdges=%d", g.Size(), g.NumEdges())
	}
}

// TestDevTypeLabels checks every device's view type label against
// label.TypeLabel over type sequences with runs, two-type alternation and
// three types in rotation, which the build's two-entry memo must all get
// right.
func TestDevTypeLabels(t *testing.T) {
	types := []string{"nmos", "nmos", "pmos", "nmos", "pmos", "res", "nmos", "cap", "res", "res", "pmos", "cap", "nmos"}
	c := graph.New("types")
	a, b := c.AddNet("a"), c.AddNet("b")
	for i, typ := range types {
		c.MustAddDevice(fmt.Sprintf("d%d", i), typ, []graph.TermClass{graph.ClassDS, graph.ClassDS}, []*graph.Net{a, b})
	}
	g := New(c)
	for _, d := range c.Devices {
		if got, want := g.DevType[d.Index], label.TypeLabel(d.Type); got != want {
			t.Errorf("DevType of %s (%s) = %#x, want %#x", d.Name, d.Type, got, want)
		}
	}
}

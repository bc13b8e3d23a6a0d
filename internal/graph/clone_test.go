package graph_test

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
)

// conns lists a net's connections as (device name, pin) pairs, the
// representation two circuits can be compared in.
func conns(n *graph.Net) []string {
	out := make([]string, len(n.Conns))
	for i, c := range n.Conns {
		out[i] = c.Dev.Name + "/" + strconv.Itoa(c.Pin)
	}
	return out
}

// sameConnOrder fails t unless every net of b lists its connections in
// the same order as the net of a at the same index.
func sameConnOrder(t *testing.T, a, b *graph.Circuit) {
	t.Helper()
	if len(a.Nets) != len(b.Nets) {
		t.Fatalf("net counts differ: %d vs %d", len(a.Nets), len(b.Nets))
	}
	for i, n := range a.Nets {
		if got, want := conns(b.Nets[i]), conns(n); !slices.Equal(got, want) {
			t.Fatalf("net %s: clone conns %v, source %v", n.Name, got, want)
		}
	}
}

// TestCloneKeepsConnOrder: RewirePin appends to its target net and
// RemoveDevice splices, so an edited circuit's Conns are not in device
// order.  Clone must copy them as they are — csr.Patch splices unedited
// rows from the previous view and needs the clone's order to match.
func TestCloneKeepsConnOrder(t *testing.T) {
	c := gen.RandomLogic(50, 8, 3).C
	target := c.Nets[len(c.Nets)-1]
	if err := c.RewirePin(c.Devices[0].Name, 0, target); err != nil {
		t.Fatal(err)
	}
	if err := c.RewirePin(c.Devices[5].Name, 1, c.Nets[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveDevice(c.Devices[3].Name); err != nil {
		t.Fatal(err)
	}
	if last := target.Conns[len(target.Conns)-1]; last.Dev != c.Devices[0] || len(target.Conns) < 2 {
		t.Fatalf("setup: rewired pin is not last on %s", target.Name)
	}
	cp := c.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	sameConnOrder(t, c, cp)
	// A clone of a clone is the same again.
	sameConnOrder(t, c, cp.Clone())
}

// TestCloneIndependence: a clone shares no backing array with its source,
// and neighbouring nets of the clone (which share one slab) do not share
// capacity: appending to one net's Conns leaves the next net and the
// source untouched.  Likewise for a device's Pins.
func TestCloneIndependence(t *testing.T) {
	c := gen.RandomLogic(50, 8, 3).C
	cp := c.Clone()
	a, b := cp.Nets[0], cp.Nets[1]
	before := conns(b)
	srcBefore := conns(c.Nets[0])
	a.Conns = append(a.Conns, graph.Conn{Dev: cp.Devices[0], Pin: 0})
	if got := conns(b); !slices.Equal(got, before) {
		t.Fatalf("append to net %s changed neighbour %s: %v -> %v", a.Name, b.Name, before, got)
	}
	if got := conns(c.Nets[0]); !slices.Equal(got, srcBefore) {
		t.Fatalf("append to clone changed source net: %v -> %v", srcBefore, got)
	}

	d0, d1 := cp.Devices[0], cp.Devices[1]
	pinNet := d1.Pins[0].Net
	d0.Pins = append(d0.Pins, graph.Pin{Net: cp.Nets[0]})
	if d1.Pins[0].Net != pinNet {
		t.Fatal("append to one device's pins changed its neighbour's")
	}
	for i, d := range c.Devices {
		if &d.Pins[0] == &cp.Devices[i].Pins[0] {
			t.Fatalf("device %s shares its pin array with the clone", d.Name)
		}
	}
}

// TestCloneAllocationsConstant: Clone allocates one slab per kind, so its
// allocation count does not grow with the circuit.  The only size-bound
// term is the runtime's: a Go map allocates a table per 1024 entries (and
// splits tables at random as it fills), so rand4000's clone may allocate
// a few dozen more times than rand1000's, about one per 400 vertices.
// Allocating per device or net would add at least one per vertex.
func TestCloneAllocationsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rand4000")
	}
	var allocs, vertices []float64
	for _, gates := range []int{1000, 4000} {
		c := gen.RandomLogic(gates, gates/64+8, 1).C
		n := testing.AllocsPerRun(3, func() { c.Clone() })
		allocs = append(allocs, n)
		vertices = append(vertices, float64(c.NumDevices()+c.NumNets()))
		t.Logf("rand%d: %d devices, %d nets: %.0f allocations", gates, c.NumDevices(), c.NumNets(), n)
	}
	if per := (allocs[1] - allocs[0]) / (vertices[1] - vertices[0]); per > 0.01 {
		t.Errorf("Clone allocations grow by %.3f per vertex, want < 0.01 (name-map tables only)", per)
	}
}

// TestParseFlattenAllocationsConstant: reading a flat netlist and building
// its circuit allocates in chunks, blocks and slabs, never per card, pin
// or net, so from rand1000 to rand4000 the count may grow only by the
// chunks and blocks a larger input needs and the name maps' tables.
func TestParseFlattenAllocationsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rand4000")
	}
	var allocs, vertices []float64
	for _, gates := range []int{1000, 4000} {
		c := gen.RandomLogic(gates, gates/64+8, 1).C
		var src strings.Builder
		if err := netlist.WriteCircuit(&src, c); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(3, func() {
			f, err := netlist.ParseString(src.String(), "rand.sp")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.MainCircuit("rand"); err != nil {
				t.Fatal(err)
			}
		})
		allocs = append(allocs, n)
		vertices = append(vertices, float64(c.NumDevices()+c.NumNets()))
		t.Logf("rand%d: %d devices, %d nets: %.0f allocations", gates, c.NumDevices(), c.NumNets(), n)
	}
	if per := (allocs[1] - allocs[0]) / (vertices[1] - vertices[0]); per > 0.01 {
		t.Errorf("ParseString plus MainCircuit allocations grow by %.3f per vertex, want < 0.01", per)
	}
}

var cloneSink *graph.Circuit

// BenchmarkClone times one Clone of rand4000 (27k devices), the copy every
// PATCH and extract job makes of a stored circuit.
func BenchmarkClone(b *testing.B) {
	c := gen.RandomLogic(4000, 4000/64+8, 1).C
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = c.Clone()
	}
}

package netlist_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

// The reference writers: the fmt.Fprintf-per-card implementation the
// buffered writer replaced, kept to pin its output byte for byte.

func refWriteCircuit(w io.Writer, c *graph.Circuit) error {
	bw := &refErrWriter{w: w}
	bw.printf("* circuit %s: %d devices, %d nets\n", c.Name, c.NumDevices(), c.NumNets())
	if globals := c.Globals(); len(globals) > 0 {
		names := make([]string, len(globals))
		for i, g := range globals {
			names[i] = g.Name
		}
		bw.printf(".GLOBAL %s\n", strings.Join(names, " "))
	}
	for _, d := range c.Devices {
		refWriteDevice(bw, d)
	}
	bw.printf(".END\n")
	return bw.err
}

func refWriteSubckt(w io.Writer, c *graph.Circuit) error {
	bw := &refErrWriter{w: w}
	ports := c.Ports()
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = p.Name
	}
	if globals := c.Globals(); len(globals) > 0 {
		gnames := make([]string, len(globals))
		for i, g := range globals {
			gnames[i] = g.Name
		}
		bw.printf(".GLOBAL %s\n", strings.Join(gnames, " "))
	}
	bw.printf(".SUBCKT %s %s\n", c.Name, strings.Join(names, " "))
	for _, d := range c.Devices {
		refWriteDevice(bw, d)
	}
	bw.printf(".ENDS %s\n", c.Name)
	return bw.err
}

func refWriteDevice(bw *refErrWriter, d *graph.Device) {
	nets := make([]string, len(d.Pins))
	for i, p := range d.Pins {
		nets[i] = p.Net.Name
	}
	joined := strings.Join(nets, " ")
	switch d.Type {
	case "nmos", "pmos":
		bw.printf("%s %s %s\n", refElementName('M', d.Name), joined, d.Type)
	case "res":
		bw.printf("%s %s\n", refElementName('R', d.Name), joined)
	case "cap":
		bw.printf("%s %s\n", refElementName('C', d.Name), joined)
	case "diode":
		bw.printf("%s %s\n", refElementName('D', d.Name), joined)
	default:
		bw.printf("%s %s %s\n", refElementName('X', d.Name), joined, d.Type)
	}
}

func refElementName(kind byte, name string) string {
	if len(name) > 0 && refUpperByte(name[0]) == kind {
		return name
	}
	return string(kind) + name
}

func refUpperByte(b byte) byte {
	if 'a' <= b && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

type refErrWriter struct {
	w   io.Writer
	err error
}

func (e *refErrWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// writerCases covers every card shape: generated transistor circuits
// whose names need an element-letter prefix, parsed netlists whose names
// already carry one, a flattened hierarchy, gate-level X cards from
// extraction-style typed devices, passives and diodes, and circuits with
// and without .GLOBAL.
func writerCases(t *testing.T) []*graph.Circuit {
	t.Helper()
	parsed := func(src, name string) *graph.Circuit {
		f, err := netlist.ParseString(src, name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := f.MainCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	gates := graph.New("gates")
	a, b, y, z := gates.AddNet("a"), gates.AddNet("b"), gates.AddNet("y"), gates.AddNet("z")
	gates.MustAddDevice("u1", "NAND2", []graph.TermClass{0, 0, 1}, []*graph.Net{a, b, y})
	gates.MustAddDevice("Xinv", "INV", []graph.TermClass{0, 1}, []*graph.Net{y, z})
	gates.MustAddDevice("r1", "res", []graph.TermClass{0, 0}, []*graph.Net{z, a})
	gates.MustAddDevice("cload", "cap", []graph.TermClass{0, 0}, []*graph.Net{z, b})
	gates.MustAddDevice("esd", "diode", []graph.TermClass{0, 1}, []*graph.Net{a, b})
	return []*graph.Circuit{
		gen.RandomLogic(200, 12, 7).C,
		gen.RippleAdder(8).C,
		parsed(nandSrcExt, "top"),
		parsed("M1 d g s b nmos\nR1 d s 1k\nC1 d g\nD1 s b dmod\n", "flat"),
		gates,
	}
}

// TestWriterMatchesReference: the card-buffer writers emit exactly the
// bytes of the fmt reference, for main circuits and subcircuits.
func TestWriterMatchesReference(t *testing.T) {
	for _, c := range writerCases(t) {
		var got, want strings.Builder
		if err := netlist.WriteCircuit(&got, c); err != nil {
			t.Fatal(err)
		}
		if err := refWriteCircuit(&want, c); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("WriteCircuit(%s) differs from the reference:\n got %.300q\nwant %.300q", c.Name, got.String(), want.String())
		}
	}
	patterns := []*graph.Circuit{stdcell.NAND2.Pattern(), stdcell.FA.Pattern(), stdcell.DFF.Pattern()}
	withGlobals := stdcell.INV.Pattern()
	withGlobals.MarkGlobal("VDD")
	withGlobals.MarkGlobal("GND")
	noPorts := graph.New("floating")
	noPorts.MustAddDevice("m1", "nmos", []graph.TermClass{0, 1, 0}, []*graph.Net{noPorts.AddNet("a"), noPorts.AddNet("b"), noPorts.AddNet("c")})
	for _, p := range append(patterns, withGlobals, noPorts) {
		var got, want strings.Builder
		if err := netlist.WriteSubckt(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := refWriteSubckt(&want, p); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("WriteSubckt(%s) differs from the reference:\n got %q\nwant %q", p.Name, got.String(), want.String())
		}
	}
}

// sameCircuit reports how b differs from a, or "" when they have the same
// devices in the same order (names, types, classes, net names) and the
// same nets by name with the same flags and degrees.
func sameCircuit(a, b *graph.Circuit) string {
	if a.NumDevices() != b.NumDevices() || a.NumNets() != b.NumNets() {
		return fmt.Sprintf("shape %d/%d vs %d/%d", a.NumDevices(), a.NumNets(), b.NumDevices(), b.NumNets())
	}
	for i, d := range a.Devices {
		e := b.Devices[i]
		if d.Name != e.Name || d.Type != e.Type || len(d.Pins) != len(e.Pins) {
			return fmt.Sprintf("device %d: %s %s/%d vs %s %s/%d", i, d.Name, d.Type, len(d.Pins), e.Name, e.Type, len(e.Pins))
		}
		for pi, p := range d.Pins {
			if q := e.Pins[pi]; p.Class != q.Class || p.Net.Name != q.Net.Name {
				return fmt.Sprintf("device %s pin %d: class %d net %s vs class %d net %s", d.Name, pi, p.Class, p.Net.Name, q.Class, q.Net.Name)
			}
		}
	}
	for i, n := range a.Nets {
		m := b.Nets[i]
		if m.Name != n.Name || m.Port != n.Port || m.Global != n.Global || m.Degree() != n.Degree() {
			return fmt.Sprintf("net %d: %s differs from %s", i, n.Name, m.Name)
		}
	}
	return ""
}

// TestRoundTripsIsExact: when RoundTrips accepts a circuit, writing and
// re-reading it gives the same circuit; every rejected case is one the
// reader would get wrong (or refuse).
func TestRoundTripsIsExact(t *testing.T) {
	reread := func(c *graph.Circuit) (*graph.Circuit, error) {
		var buf strings.Builder
		if err := netlist.WriteCircuit(&buf, c); err != nil {
			return nil, err
		}
		f, err := netlist.ParseString(buf.String(), "rt.sp")
		if err != nil {
			return nil, err
		}
		back, err := f.MainCircuit(c.Name)
		if err != nil {
			return nil, err
		}
		for _, n := range c.Nets {
			if n.Global {
				back.MarkGlobal(n.Name)
			}
		}
		return back, nil
	}
	// Generated designs name devices without the element letter; one
	// write/read pass gives them the names the reader keeps.
	uploaded, err := reread(gen.RandomLogic(100, 10, 5).C)
	if err != nil {
		t.Fatal(err)
	}
	flat := writerCases(t)[3]
	accept := []*graph.Circuit{uploaded, flat}
	for _, c := range accept {
		if !netlist.RoundTrips(c) {
			t.Errorf("%s: RoundTrips = false for a circuit read from a flat netlist", c.Name)
			continue
		}
		back, err := reread(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if diff := sameCircuit(c, back); diff != "" {
			t.Errorf("%s: accepted circuit does not round-trip: %s", c.Name, diff)
		}
	}

	reject := map[string]func() *graph.Circuit{
		"generated names lack the element letter": func() *graph.Circuit { return gen.RippleAdder(2).C },
		"flattened hierarchy Xg1/MP1":             func() *graph.Circuit { return writerCases(t)[2] },
		"gate-level X card":                       func() *graph.Circuit { return writerCases(t)[4] },
		"two-pin MOS": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("M1", "nmos", []graph.TermClass{0, 1}, []*graph.Net{c.AddNet("a"), c.AddNet("b")})
			return c
		},
		"MOS with foreign classes": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("M1", "nmos", []graph.TermClass{0, 0, 0}, []*graph.Net{c.AddNet("a"), c.AddNet("b"), c.AddNet("c")})
			return c
		},
		"name lacks its element letter": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("R1", "nmos", []graph.TermClass{0, 1, 0}, []*graph.Net{c.AddNet("a"), c.AddNet("b"), c.AddNet("c")})
			return c
		},
		"device name with a space": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("R 1", "res", []graph.TermClass{0, 0}, []*graph.Net{c.AddNet("a"), c.AddNet("b")})
			return c
		},
		"net name with a semicolon": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("R1", "res", []graph.TermClass{0, 0}, []*graph.Net{c.AddNet("a;b"), c.AddNet("b")})
			return c
		},
		"unconnected net": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("R1", "res", []graph.TermClass{0, 0}, []*graph.Net{c.AddNet("a"), c.AddNet("b")})
			c.AddNet("spare")
			return c
		},
		"port net": func() *graph.Circuit {
			c := graph.New("c")
			c.MustAddDevice("R1", "res", []graph.TermClass{0, 0}, []*graph.Net{c.AddNet("a"), c.AddNet("b")})
			if err := c.MarkPort("a"); err != nil {
				t.Fatal(err)
			}
			return c
		},
		"nets out of first-appearance order": func() *graph.Circuit {
			c := graph.New("c")
			b, a := c.AddNet("b"), c.AddNet("a")
			c.MustAddDevice("R1", "res", []graph.TermClass{0, 0}, []*graph.Net{a, b})
			return c
		},
		"no devices": func() *graph.Circuit { return graph.New("empty") },
		"line break in the circuit name": func() *graph.Circuit {
			c := graph.New("a\nR9 x y")
			c.MustAddDevice("R1", "res", []graph.TermClass{0, 0}, []*graph.Net{c.AddNet("a"), c.AddNet("b")})
			return c
		},
	}
	for what, build := range reject {
		c := build()
		if netlist.RoundTrips(c) {
			t.Errorf("%s: RoundTrips = true", what)
			continue
		}
		if back, err := reread(c); err == nil && sameCircuit(c, back) == "" {
			t.Errorf("%s: rejected, yet the netlist reproduces it exactly", what)
		}
	}
}

// BenchmarkParseFlatten times the upload path's netlist half on rand4000
// (27k devices): "reader" is ParseString alone, "flatten" MainCircuit of
// the parsed file, and "hierarchical" both of them over the same design
// after extract.Cells, written with extract.WriteHierarchical, so that
// MainCircuit expands a subcircuit instance per extracted cell.
func BenchmarkParseFlatten(b *testing.B) {
	d := gen.RandomLogic(4000, 4000/64+8, 1)
	var flat strings.Builder
	if err := netlist.WriteCircuit(&flat, d.C); err != nil {
		b.Fatal(err)
	}
	ext := d.C.Clone()
	if _, err := extract.Cells(ext, stdcell.All(), extract.Options{Globals: []string{"VDD", "GND"}}); err != nil {
		b.Fatal(err)
	}
	var hier strings.Builder
	if err := extract.WriteHierarchical(&hier, ext); err != nil {
		b.Fatal(err)
	}
	parsed, err := netlist.ParseString(flat.String(), "rand4000.sp")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("reader", func(b *testing.B) {
		b.SetBytes(int64(flat.Len()))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := netlist.ParseString(flat.String(), "rand4000.sp"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flatten", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := parsed.MainCircuit("rand4000"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hierarchical", func(b *testing.B) {
		b.SetBytes(int64(hier.Len()))
		b.ReportAllocs()
		for b.Loop() {
			f, err := netlist.ParseString(hier.String(), "rand4000.sp")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.MainCircuit("rand4000"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

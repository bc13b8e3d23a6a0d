package netlist

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"subgemini/internal/graph"
)

const nandSrc = `
* two-input NAND and an inverter on its output
.GLOBAL VDD GND
.SUBCKT NAND2 A B Y
MP1 Y A VDD pmos
MP2 Y B VDD pmos
MN1 Y A n1 nmos
MN2 n1 B GND nmos
.ENDS NAND2
.SUBCKT INV A Y
MP Y A VDD pmos
MN Y A GND nmos
.ENDS
Xg1 a b w NAND2
Xg2 w y INV
.END
`

func TestParseBasics(t *testing.T) {
	f, err := ParseString(nandSrc, "nand.sp")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Subckts) != 2 {
		t.Fatalf("parsed %d subckts, want 2", len(f.Subckts))
	}
	nand := f.Subckts["NAND2"]
	if nand == nil || len(nand.Ports) != 3 || len(nand.Cards) != 4 {
		t.Fatalf("NAND2 parsed wrong: %+v", nand)
	}
	if len(f.Top) != 2 {
		t.Fatalf("parsed %d top cards, want 2", len(f.Top))
	}
	if f.Top[0].Kind != 'X' || f.Top[0].Ref != "NAND2" {
		t.Errorf("top card 0 = %+v", f.Top[0])
	}
	if len(f.Globals) != 2 {
		t.Errorf("globals = %v", f.Globals)
	}
}

func TestParseContinuationAndComments(t *testing.T) {
	src := "* header\nMP1 Y A\n+ VDD pmos  ; trailing comment\n; full comment\nMN1 Y A GND nmos\n"
	f, err := ParseString(src, "t.sp")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Top) != 2 {
		t.Fatalf("got %d cards, want 2", len(f.Top))
	}
	if got := f.Top[0].Nets; len(got) != 3 || got[2] != "VDD" {
		t.Errorf("continuation not joined: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"continuation first":  "+ M1 a b c nmos\n",
		"nested subckt":       ".SUBCKT A x\n.SUBCKT B y\n.ENDS\n.ENDS\n",
		"unterminated subckt": ".SUBCKT A x\nMN1 a b c nmos\n",
		"stray ends":          ".ENDS\n",
		"mismatched ends":     ".SUBCKT A x\nMN1 a b c nmos\n.ENDS B\n",
		"subckt without name": ".SUBCKT\n",
		"duplicate subckt":    ".SUBCKT A x\n.ENDS\n.SUBCKT A x\n.ENDS\n",
		"unknown directive":   ".OPTIONS foo\n",
		"mos with 2 nets":     "M1 a b nmos\n",
		"mos with 6 fields":   "M1 a b c d e nmos\n",
		"resistor with 1 net": "R1 a\n",
		"instance with 1 arg": "X1 SUB\n",
		"unsupported element": "Q1 a b c npn\n",
	}
	for name, src := range cases {
		if _, err := ParseString(src, "e.sp"); err == nil {
			t.Errorf("%s: error expected, got none", name)
		}
	}
}

func TestMOSType(t *testing.T) {
	for model, want := range map[string]string{
		"pmos": "pmos", "PMOS": "pmos", "pfet": "pmos", "p": "pmos",
		"nmos": "nmos", "NMOS": "nmos", "nfet": "nmos", "n": "nmos", "mosfet": "nmos",
	} {
		if got := MOSType(model); got != want {
			t.Errorf("MOSType(%q) = %q, want %q", model, got, want)
		}
	}
}

func TestMainCircuitFlattening(t *testing.T) {
	f, err := ParseString(nandSrc, "nand.sp")
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.MainCircuit("top")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 6 {
		t.Fatalf("flattened to %d devices, want 6", c.NumDevices())
	}
	// Hierarchical names for internal devices and nets.
	if c.DeviceByName("Xg1/MP1") == nil {
		t.Error("instance device Xg1/MP1 missing")
	}
	if c.NetByName("Xg1/n1") == nil {
		t.Error("instance-local net Xg1/n1 missing")
	}
	// Ports bind to top nets; globals are shared, not prefixed.
	if c.NetByName("w") == nil || c.NetByName("VDD") == nil {
		t.Error("top net or global missing")
	}
	if !c.NetByName("VDD").Global {
		t.Error("VDD not marked global")
	}
	if c.NetByName("Xg1/VDD") != nil {
		t.Error("global was instance-prefixed")
	}
	// w is the NAND output and INV input: MP1.D, MP2.D, MN1.D + MP.G, MN.G.
	if got := c.NetByName("w").Degree(); got != 5 {
		t.Errorf("degree(w) = %d, want 5", got)
	}
}

func TestPattern(t *testing.T) {
	f, err := ParseString(nandSrc, "nand.sp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Pattern("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumDevices() != 4 {
		t.Fatalf("pattern has %d devices, want 4", p.NumDevices())
	}
	for _, port := range []string{"A", "B", "Y"} {
		n := p.NetByName(port)
		if n == nil || !n.Port {
			t.Errorf("port %s missing or unmarked", port)
		}
	}
	if !p.NetByName("VDD").Global {
		t.Error("VDD not global in pattern")
	}
	if p.NetByName("n1").Port {
		t.Error("internal net n1 marked as port")
	}
	if _, err := f.Pattern("NOPE"); err == nil {
		t.Error("unknown subckt accepted")
	}
}

// TestPatternDoesNotPinSource: a pattern, and the .SUBCKT name a caller
// takes from the File to key it by, keep none of the source text alive.
// Pattern caches hold both for long, and a small cell selected from a large
// inline netlist must not keep the whole request body reachable.
func TestPatternDoesNotPinSource(t *testing.T) {
	pat, key, collected := patternFromLargeSource(t)
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("source text survived a GC while its pattern was held")
	}
	if pat.NumDevices() != 2 || key != "INV" {
		t.Fatalf("pattern %q has %d devices, want INV with 2", key, pat.NumDevices())
	}
}

// patternFromLargeSource compiles the INV cell of a netlist that an unused
// cell makes about a megabyte long.  It returns the pattern, INV's name as
// the File holds it, and a channel closed once the source is collected.
func patternFromLargeSource(t *testing.T) (*graph.Circuit, string, <-chan struct{}) {
	var b strings.Builder
	b.WriteString(".GLOBAL VDD GND\n.SUBCKT INV A Y\nMP Y A VDD pmos\nMN Y A GND nmos\n.ENDS\n.SUBCKT BIG A Y\n")
	for i := range 40000 {
		fmt.Fprintf(&b, "MN%d Y A n%d nmos\n", i, i)
	}
	b.WriteString(".ENDS\n")
	src := b.String()
	collected := make(chan struct{})
	runtime.AddCleanup(unsafe.StringData(src), func(ch chan struct{}) { close(ch) }, collected)
	f, err := ParseString(src, "lib.sp")
	if err != nil {
		t.Fatal(err)
	}
	pat, err := f.Pattern("INV")
	if err != nil {
		t.Fatal(err)
	}
	return pat, f.Subckts["INV"].Name, collected
}

func TestRecursiveInstantiationRejected(t *testing.T) {
	src := ".SUBCKT A x\nXa x A\n.ENDS\nXtop y A\n"
	f, err := ParseString(src, "rec.sp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.MainCircuit("top"); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("recursive instantiation not rejected: %v", err)
	}
}

func TestInstanceArityChecked(t *testing.T) {
	src := ".SUBCKT A x y\nMN1 x y GND nmos\n.ENDS\nXtop a A\n"
	f, err := ParseString(src, "arity.sp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.MainCircuit("top"); err == nil {
		t.Error("arity mismatch not rejected")
	}
}

func TestUnknownSubcktRejected(t *testing.T) {
	f, err := ParseString("X1 a b NOPE\n", "u.sp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.MainCircuit("top"); err == nil {
		t.Error("unknown subcircuit reference not rejected")
	}
}

func TestFourTerminalMOSAndPassives(t *testing.T) {
	src := ".GLOBAL VDD\nM1 d g s b nmos\nR1 a b 100\nC1 a b 1p\nD1 a b dio\n"
	f, err := ParseString(src, "m4.sp")
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.MainCircuit("top")
	if err != nil {
		t.Fatal(err)
	}
	m := c.DeviceByName("M1")
	if len(m.Pins) != 4 {
		t.Fatalf("M1 has %d pins, want 4", len(m.Pins))
	}
	if m.Pins[0].Class != m.Pins[2].Class {
		t.Error("drain and source classes differ")
	}
	if m.Pins[3].Class == m.Pins[0].Class {
		t.Error("bulk shares the source/drain class")
	}
	for name, typ := range map[string]string{"R1": "res", "C1": "cap", "D1": "diode"} {
		if d := c.DeviceByName(name); d == nil || d.Type != typ {
			t.Errorf("%s: got %+v, want type %s", name, d, typ)
		}
	}
}

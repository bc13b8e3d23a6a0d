package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"subgemini/internal/graph"
)

// FuzzParse holds the reader and the flattener to their references in
// parseref_test.go on every input: the same accept or reject with the same
// error text, an equal File, and from MainCircuit and every Pattern the
// same circuit (devices, pins, net order, Port and Global marks, and the
// order of every Net.Conns) or the same error.  Whatever is built must also
// be structurally valid.  `go test` runs the seed corpus; `go test -fuzz
// FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		nandSrc,
		"",
		"*",
		"+ dangling",
		".GLOBAL\n",
		".SUBCKT X a\nM1 a a a nmos\n.ENDS\nX1 w X\n",
		"M1 a b c nmos\nM1 a b c nmos\n", // duplicate names
		"R1 a a\n",                       // self-loop resistor
		"M1 a b c d e f g nmos\n",
		".suBcKt weird P\nC1 P x\n.ends\nXw q weird\n",
		strings.Repeat("M1 a b c nmos\n", 3),
		"X1 a b c MISSING\n.SUBCKT MISSING x\n.ENDS\n", // arity mismatch
		// CRLF line endings, and a last line with no newline.
		".GLOBAL VDD\r\nM1 a b VDD pmos\r\n+ \r\nR1 a b 10k\r\n.END",
		"M1 a b c nmos\r\r\nR1 b c",
		// U+00A0 and U+0085 separate fields, as strings.Fields has it;
		// invalid UTF-8 does not.
		"M1 a b c\u0085 nmos\nR1 x y\n",
		" \u0085M1 a b c nmos  \nR1 \xc2 \xa0x\n",
		// Lower-case and case-folded directives: ".ſubckt" upper-cases
		// to ".SUBCKT" and ".ends" to ".ENDS".
		".global vdd\n.subckt inv a y\nMP y a vdd Pmos\nMN y a gnd NMOS\n.ends inv\nX1 i o inv\n",
		".ſubckt S q\nR1 q r\n.ENDS S\nXs n S\n",
		".ſubckt\n",
		// A continuation after a comment line joins the card before it.
		"M1 a b\n* a comment\n; another\n+ c nmos\nR1 a\n* x\n+ b ; trailing\n",
		".SUBCKT P a\n* ports continue\n+ b c\nR1 a b\nR2 b c\n.ENDS\nXp x y z P\n",
		// Duplicate device names across hierarchy levels.
		".SUBCKT S a\nM1 a b c nmos\n.ENDS\nM1 a b c nmos\nX1 n S\nX1/M1 p q r nmos\n",
		".SUBCKT S a\nR1 a l\n.ENDS\nX1 n S\nX2 n S\nR1 n l\n",
		// A duplicate before an unknown-subcircuit card: the first error
		// in card order wins.
		"M1 a b c nmos\nM1 a b c nmos\nX1 a NOPE\n",
		".SUBCKT S a\nR1 a b\nX9 a NOPE\n.ENDS\nR1 n m\nX1/R1 n m\nX1 n S\n",
		// Hierarchy: ports shadowing globals, repeated ports, globals
		// inside instances, nested instances and an unused port.
		".GLOBAL VDD GND\n.SUBCKT INV a y\nMP y a VDD pmos\nMN y a GND nmos\n.ENDS\n" +
			".SUBCKT BUF a y VDD\nX1 a m INV\nX2 m y INV\n.ENDS\n.SUBCKT E u\n.ENDS\n" +
			".SUBCKT R a a\nR1 a b\n.ENDS\nXb i o VDD BUF\nXe z E\nXr p q R\nMt o i GND nmos\n",
		// Top-level cards on both sides of a definition.
		"R1 a b\n.SUBCKT S x\nR2 x y\n.ENDS\nR3 c d\nXs a S\n.SUBCKT T\n.ENDS\nR4 d e\n",
		// Recursion, and the main circuit named like a subcircuit.
		".SUBCKT A x\nXb x B\n.ENDS\n.SUBCKT B y\nXa y A\n.ENDS\nXt n A\n",
		".SUBCKT fuzz a\nR1 a b\n.ENDS\nX1 n fuzz\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := refParseString(src, "fuzz.sp")
		if errors.Is(wantErr, bufio.ErrTooLong) {
			return // a line over 16 MiB: the only allowed difference
		}
		got, err := ParseString(src, "fuzz.sp")
		if msg := diffErr(err, wantErr); msg != "" {
			t.Fatalf("ParseString: %s\ninput: %q", msg, src)
		}
		viaReader, err := Parse(strings.NewReader(src), "fuzz.sp")
		if msg := diffErr(err, wantErr); msg != "" {
			t.Fatalf("Parse: %s\ninput: %q", msg, src)
		}
		if wantErr != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseString File differs from the reference\n got %+v\nwant %+v\ninput: %q", got, want, src)
		}
		if !reflect.DeepEqual(viaReader, want) {
			t.Fatalf("Parse File differs from the reference\ninput: %q", src)
		}
		// Nested instances multiply: an input that expands too far is
		// not flattened twice here.
		memo := map[string]float64{}
		if expansion(got, got.Top, memo, map[string]bool{"fuzz": true}) <= maxExpansion {
			c, err := got.MainCircuit("fuzz")
			ref, refErr := refMainCircuit(want, "fuzz")
			if msg := diffBuilt(c, err, ref, refErr); msg != "" {
				t.Fatalf("MainCircuit: %s\ninput: %q", msg, src)
			}
		}
		names := make([]string, 0, len(got.Subckts))
		for name := range got.Subckts {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			if expansion(got, got.Subckts[name].Cards, memo, map[string]bool{name: true}) > maxExpansion {
				continue
			}
			p, err := got.Pattern(name)
			ref, refErr := refPattern(want, name)
			if msg := diffBuilt(p, err, ref, refErr); msg != "" {
				t.Fatalf("Pattern %s: %s\ninput: %q", name, msg, src)
			}
		}
	})
}

// maxExpansion bounds the cards a fuzz input may expand to.  A few dozen
// bytes of nested doubling .SUBCKTs expand exponentially: flattening such
// an input twice per run would stall the fuzzer, above all while it
// minimizes one.
const maxExpansion = 1 << 12

// expansion counts the cards that flattening cards visits, instances
// included, using memo for each .SUBCKT's count and open for the names
// being expanded.  A recursive instance counts once: the walk stops with
// an error there.
func expansion(f *File, cards []Card, memo map[string]float64, open map[string]bool) float64 {
	n := float64(len(cards))
	for _, c := range cards {
		sub, ok := f.Subckts[c.Ref]
		if c.Kind != 'X' || !ok || open[c.Ref] {
			continue
		}
		m, done := memo[c.Ref]
		if !done {
			open[c.Ref] = true
			m = expansion(f, sub.Cards, memo, open)
			open[c.Ref] = false
			memo[c.Ref] = m
		}
		n += m
	}
	return n
}

func diffErr(got, want error) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("error %v, reference %v", got, want)
	case got != nil && got.Error() != want.Error():
		return fmt.Sprintf("error %q, reference %q", got, want)
	}
	return ""
}

// diffBuilt compares a built circuit and its error with the reference's,
// and checks that a built circuit is valid.
func diffBuilt(got *graph.Circuit, err error, want *graph.Circuit, wantErr error) string {
	if msg := diffErr(err, wantErr); msg != "" || err != nil {
		return msg
	}
	if err := got.Validate(); err != nil {
		return fmt.Sprintf("invalid circuit: %v", err)
	}
	return diffCircuit(got, want)
}

// diffCircuit describes the first difference between two circuits in
// name, devices, pins, nets in order, marks and connection order.
func diffCircuit(a, b *graph.Circuit) string {
	if a.Name != b.Name || len(a.Devices) != len(b.Devices) || len(a.Nets) != len(b.Nets) {
		return fmt.Sprintf("shape %s %d/%d, reference %s %d/%d", a.Name, len(a.Devices), len(a.Nets), b.Name, len(b.Devices), len(b.Nets))
	}
	for i, d := range a.Devices {
		e := b.Devices[i]
		if d.Name != e.Name || d.Type != e.Type || len(d.Pins) != len(e.Pins) {
			return fmt.Sprintf("device %d: %s %s/%d, reference %s %s/%d", i, d.Name, d.Type, len(d.Pins), e.Name, e.Type, len(e.Pins))
		}
		for k, p := range d.Pins {
			if q := e.Pins[k]; p.Class != q.Class || p.Net.Index != q.Net.Index {
				return fmt.Sprintf("device %s pin %d: class %d net %d, reference class %d net %d", d.Name, k, p.Class, p.Net.Index, q.Class, q.Net.Index)
			}
		}
	}
	for i, n := range a.Nets {
		m := b.Nets[i]
		if n.Name != m.Name || n.Port != m.Port || n.Global != m.Global || len(n.Conns) != len(m.Conns) {
			return fmt.Sprintf("net %d: %q port=%v global=%v degree %d, reference %q port=%v global=%v degree %d",
				i, n.Name, n.Port, n.Global, len(n.Conns), m.Name, m.Port, m.Global, len(m.Conns))
		}
		for k, c := range n.Conns {
			if d := m.Conns[k]; c.Dev.Index != d.Dev.Index || c.Pin != d.Pin {
				return fmt.Sprintf("net %s conn %d: device %d pin %d, reference device %d pin %d", n.Name, k, c.Dev.Index, c.Pin, d.Dev.Index, d.Pin)
			}
		}
	}
	return ""
}

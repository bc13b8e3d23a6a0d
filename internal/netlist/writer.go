package netlist

import (
	"io"
	"strconv"
	"strings"
	"unicode"

	"subgemini/internal/graph"
)

// WriteCircuit emits a flat circuit as top-level netlist cards, preceded by
// a .GLOBAL line for its global nets.  Devices of the primitive types
// (nmos, pmos, res, cap, diode) map back to their element cards; any other
// device type — e.g. a gate produced by extraction — is written as an X
// instance card referencing the type name.  Each card is assembled in one
// reused buffer and written whole, so callers writing to a file should
// buffer w.
func WriteCircuit(w io.Writer, c *graph.Circuit) error {
	cw := cardWriter{w: w}
	cw.buf = append(cw.buf, "* circuit "...)
	cw.buf = append(cw.buf, c.Name...)
	cw.buf = append(cw.buf, ": "...)
	cw.buf = strconv.AppendInt(cw.buf, int64(c.NumDevices()), 10)
	cw.buf = append(cw.buf, " devices, "...)
	cw.buf = strconv.AppendInt(cw.buf, int64(c.NumNets()), 10)
	cw.buf = append(cw.buf, " nets"...)
	cw.endCard()
	cw.globals(c)
	for _, d := range c.Devices {
		cw.device(d)
	}
	cw.buf = append(cw.buf, ".END"...)
	cw.endCard()
	return cw.err
}

// WriteSubckt emits a pattern circuit as a .SUBCKT definition whose ports
// are the circuit's port nets in index order.
func WriteSubckt(w io.Writer, c *graph.Circuit) error {
	cw := cardWriter{w: w}
	cw.globals(c)
	cw.buf = append(cw.buf, ".SUBCKT "...)
	cw.buf = append(cw.buf, c.Name...)
	cw.buf = append(cw.buf, ' ')
	sep := false
	for _, n := range c.Nets {
		if n.Port {
			cw.word(n.Name, sep)
			sep = true
		}
	}
	cw.endCard()
	for _, d := range c.Devices {
		cw.device(d)
	}
	cw.buf = append(cw.buf, ".ENDS "...)
	cw.buf = append(cw.buf, c.Name...)
	cw.endCard()
	return cw.err
}

// RoundTrips reports whether WriteCircuit's output for c parses back
// (Parse, then MainCircuit) to the same circuit: the same devices in the
// same order with the same names, types, terminal classes and nets, and
// the same nets in the same order with the same global marks.  That holds
// when there is at least one device (MainCircuit refuses an empty netlist);
// every device has a primitive type, the reader's terminal count and
// classes for its card, and a name that already starts with its element
// letter (so the writer does not rename it); no name contains whitespace
// or ';' and the circuit name, written into the header comment, no line
// break; every net has a connection and is not a port, since the writer
// emits nets only through device cards and .GLOBAL; and the nets are
// numbered by first appearance on the device cards, as the reader numbers
// them (an edit that moves a pin onto a later net breaks that order).
func RoundTrips(c *graph.Circuit) bool {
	if len(c.Devices) == 0 || strings.ContainsRune(c.Name, '\n') {
		return false
	}
	next := 0 // the net index the reader would give the next new net
	for _, d := range c.Devices {
		for _, p := range d.Pins {
			switch i := p.Net.Index; {
			case i == next:
				next++
			case i > next:
				return false
			}
		}
	}
	for _, d := range c.Devices {
		kind, _ := cardKind(d.Type)
		want := cardClasses(kind, len(d.Pins))
		if want == nil || !plainName(d.Name) || upperByte(d.Name[0]) != kind {
			return false
		}
		for i, p := range d.Pins {
			if p.Class != want[i] {
				return false
			}
		}
	}
	for _, n := range c.Nets {
		if len(n.Conns) == 0 || n.Port || !plainName(n.Name) {
			return false
		}
	}
	return true
}

// plainName reports whether a name survives as one netlist field.
func plainName(s string) bool {
	return s != "" && !strings.ContainsFunc(s, func(r rune) bool { return r == ';' || unicode.IsSpace(r) })
}

// cardKind maps a device type to its element letter and whether the card
// ends with the type (a MOS model or an X instance's subcircuit name).
func cardKind(typ string) (kind byte, withType bool) {
	switch typ {
	case "nmos", "pmos":
		return 'M', true
	case "res":
		return 'R', false
	case "cap":
		return 'C', false
	case "diode":
		return 'D', false
	}
	return 'X', true
}

// appendElementName appends the device name with the right SPICE element
// letter, prefixing one when the stored name does not already start with
// it.
func appendElementName(buf []byte, kind byte, name string) []byte {
	if len(name) == 0 || upperByte(name[0]) != kind {
		buf = append(buf, kind)
	}
	return append(buf, name...)
}

// cardWriter assembles one card at a time in a reused buffer and writes
// it whole.  The first write error sticks and suppresses later writes.
type cardWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// word appends one space-separated field.
func (cw *cardWriter) word(s string, sep bool) {
	if sep {
		cw.buf = append(cw.buf, ' ')
	}
	cw.buf = append(cw.buf, s...)
}

// endCard terminates the buffered card, writes it, and resets the buffer.
func (cw *cardWriter) endCard() {
	cw.buf = append(cw.buf, '\n')
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

// globals writes the .GLOBAL card listing the global nets in index order,
// or nothing when there are none.
func (cw *cardWriter) globals(c *graph.Circuit) {
	listed := false
	for _, n := range c.Nets {
		if n.Global {
			if !listed {
				cw.buf = append(cw.buf, ".GLOBAL"...)
				listed = true
			}
			cw.word(n.Name, true)
		}
	}
	if listed {
		cw.endCard()
	}
}

func (cw *cardWriter) device(d *graph.Device) {
	kind, withType := cardKind(d.Type)
	cw.buf = appendElementName(cw.buf, kind, d.Name)
	cw.buf = append(cw.buf, ' ')
	for i, p := range d.Pins {
		cw.word(p.Net.Name, i > 0)
	}
	if withType {
		cw.word(d.Type, true)
	}
	cw.endCard()
}

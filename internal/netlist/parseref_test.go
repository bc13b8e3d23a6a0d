package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"subgemini/internal/graph"
)

// The reader and flattener that Parse, ParseString, Pattern and
// MainCircuit replaced, kept verbatim (names aside) as the differential
// reference: FuzzParse holds the production code to them on every input,
// error text included.  The one allowed difference on text is a line over
// 16 MiB, which refParse's bufio.Scanner refuses.  (Over a reader that
// fails, Parse reports the read error first; refParse reported a leading
// continuation line before it.)

// refParse is the line-scanner reader Parse replaced.  name is used in
// error messages.
func refParse(r io.Reader, name string) (*File, error) {
	f := &File{Subckts: make(map[string]*Subckt)}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var cur *Subckt
	var lines []string // logical lines after continuation joining
	var lineNos []int
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		raw := scanner.Text()
		if i := strings.IndexByte(raw, ';'); i >= 0 {
			raw = raw[:i]
		}
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '*' {
			continue
		}
		if line[0] == '+' {
			if len(lines) == 0 {
				return nil, fmt.Errorf("%s:%d: continuation with no preceding card", name, lineNo)
			}
			lines[len(lines)-1] += " " + strings.TrimSpace(line[1:])
			continue
		}
		lines = append(lines, line)
		lineNos = append(lineNos, lineNo)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	for i, line := range lines {
		ln := lineNos[i]
		fields := strings.Fields(line)
		head := strings.ToUpper(fields[0])
		switch {
		case head == ".GLOBAL":
			f.Globals = append(f.Globals, fields[1:]...)
		case head == ".SUBCKT":
			if cur != nil {
				return nil, fmt.Errorf("%s:%d: nested .SUBCKT", name, ln)
			}
			if len(fields) < 2 {
				return nil, fmt.Errorf("%s:%d: .SUBCKT needs a name", name, ln)
			}
			if _, dup := f.Subckts[fields[1]]; dup {
				return nil, fmt.Errorf("%s:%d: duplicate .SUBCKT %s", name, ln, fields[1])
			}
			cur = &Subckt{Name: fields[1], Ports: fields[2:]}
		case head == ".ENDS":
			if cur == nil {
				return nil, fmt.Errorf("%s:%d: .ENDS outside .SUBCKT", name, ln)
			}
			if len(fields) > 1 && fields[1] != cur.Name {
				return nil, fmt.Errorf("%s:%d: .ENDS %s does not close .SUBCKT %s", name, ln, fields[1], cur.Name)
			}
			f.Subckts[cur.Name] = cur
			cur = nil
		case head == ".END":
			// Accepted and ignored.
		case head[0] == '.':
			return nil, fmt.Errorf("%s:%d: unsupported directive %s", name, ln, fields[0])
		default:
			card, err := refParseCard(fields, ln, name)
			if err != nil {
				return nil, err
			}
			if cur != nil {
				cur.Cards = append(cur.Cards, card)
			} else {
				f.Top = append(f.Top, card)
			}
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: .SUBCKT %s not closed by .ENDS", name, cur.Name)
	}
	return f, nil
}

// refParseString is refParse over a string.
func refParseString(src, name string) (*File, error) {
	return refParse(strings.NewReader(src), name)
}

func refParseCard(fields []string, ln int, src string) (Card, error) {
	kind := upperByte(fields[0][0])
	c := Card{Line: ln, Kind: kind, Name: fields[0]}
	args := fields[1:]
	switch kind {
	case 'M':
		// Mname D G S [B] model — the model is mandatory so we can tell the
		// 3- and 4-terminal forms apart.
		switch len(args) {
		case 4:
			c.Nets, c.Ref = args[:3], args[3]
		case 5:
			c.Nets, c.Ref = args[:4], args[4]
		default:
			return c, fmt.Errorf("%s:%d: %s: MOS card needs 3 or 4 nets plus a model", src, ln, fields[0])
		}
	case 'R', 'C':
		if len(args) < 2 || len(args) > 3 {
			return c, fmt.Errorf("%s:%d: %s: needs 2 nets and an optional value", src, ln, fields[0])
		}
		c.Nets = args[:2]
	case 'D':
		if len(args) < 2 || len(args) > 3 {
			return c, fmt.Errorf("%s:%d: %s: needs 2 nets and an optional model", src, ln, fields[0])
		}
		c.Nets = args[:2]
		if len(args) == 3 {
			c.Ref = args[2]
		}
	case 'X':
		if len(args) < 2 {
			return c, fmt.Errorf("%s:%d: %s: instance needs nets and a subcircuit name", src, ln, fields[0])
		}
		c.Nets, c.Ref = args[:len(args)-1], args[len(args)-1]
	default:
		return c, fmt.Errorf("%s:%d: unsupported element %q", src, ln, fields[0])
	}
	return c, nil
}

// refPattern is the File.Pattern this package replaced.  It builds the
// named .SUBCKT as a pattern circuit: its ports become external nets and
// nets listed in .GLOBAL are marked global.  Instance cards inside the
// subcircuit are flattened recursively.
func refPattern(f *File, name string) (*graph.Circuit, error) {
	sub, ok := f.Subckts[name]
	if !ok {
		return nil, fmt.Errorf("netlist: no .SUBCKT named %q", name)
	}
	ckt := graph.New(name)
	bound := make(map[string]*graph.Net, len(sub.Ports))
	for _, p := range sub.Ports {
		bound[p] = ckt.AddNet(p)
	}
	if err := refExpand(f, ckt, sub, "", bound, nil); err != nil {
		return nil, err
	}
	for _, p := range sub.Ports {
		if err := ckt.MarkPort(p); err != nil {
			return nil, err
		}
	}
	for _, g := range f.Globals {
		ckt.MarkGlobal(g)
	}
	return ckt, nil
}

// refMainCircuit is the File.MainCircuit this package replaced.  It builds
// the flat main circuit from the file's top-level cards, flattening every
// subcircuit instance.  name becomes the circuit name.
func refMainCircuit(f *File, name string) (*graph.Circuit, error) {
	if len(f.Top) == 0 {
		return nil, fmt.Errorf("netlist: no top-level cards in %s", name)
	}
	ckt := graph.New(name)
	top := &Subckt{Name: name, Cards: f.Top}
	if err := refExpand(f, ckt, top, "", nil, nil); err != nil {
		return nil, err
	}
	for _, g := range f.Globals {
		ckt.MarkGlobal(g)
	}
	return ckt, nil
}

// refExpand adds the cards of sub to ckt.  prefix qualifies device and local
// net names ("x1/"); bound maps the subcircuit's port and global names to
// existing nets of ckt; stack detects recursive instantiation.
func refExpand(f *File, ckt *graph.Circuit, sub *Subckt, prefix string, bound map[string]*graph.Net, stack []string) error {
	for _, s := range stack {
		if s == sub.Name {
			return fmt.Errorf("netlist: recursive instantiation of %s (via %v)", sub.Name, stack)
		}
	}
	stack = append(stack, sub.Name)

	resolve := func(netName string) *graph.Net {
		if n, ok := bound[netName]; ok {
			return n
		}
		if refIsGlobal(f.Globals, netName) {
			return ckt.AddNet(netName) // globals are shared across levels
		}
		return ckt.AddNet(prefix + netName)
	}

	// AddDevice copies its net slice into the device's pins, so one buffer
	// serves every card at this level.
	var nets []*graph.Net
	for _, card := range sub.Cards {
		switch card.Kind {
		case 'M', 'R', 'C', 'D':
			nets = refResolveAll(nets, resolve, card.Nets)
			if _, err := ckt.AddDevice(prefix+card.Name, elementType(card), cardClasses(card.Kind, len(nets)), nets); err != nil {
				return fmt.Errorf("netlist: line %d: %w", card.Line, err)
			}
		case 'X':
			inner, ok := f.Subckts[card.Ref]
			if !ok {
				return fmt.Errorf("netlist: line %d: instance %s references unknown subcircuit %q", card.Line, card.Name, card.Ref)
			}
			if len(card.Nets) != len(inner.Ports) {
				return fmt.Errorf("netlist: line %d: instance %s connects %d nets to %s which has %d ports",
					card.Line, card.Name, len(card.Nets), inner.Name, len(inner.Ports))
			}
			innerBound := make(map[string]*graph.Net, len(inner.Ports))
			for i, p := range inner.Ports {
				innerBound[p] = resolve(card.Nets[i])
			}
			if err := refExpand(f, ckt, inner, prefix+card.Name+"/", innerBound, stack); err != nil {
				return err
			}
		default:
			return fmt.Errorf("netlist: line %d: unhandled card kind %c", card.Line, card.Kind)
		}
	}
	return nil
}

// refResolveAll resolves names into buf, reusing its storage.
func refResolveAll(buf []*graph.Net, resolve func(string) *graph.Net, names []string) []*graph.Net {
	buf = buf[:0]
	for _, n := range names {
		buf = append(buf, resolve(n))
	}
	return buf
}

func refIsGlobal(globals []string, name string) bool {
	for _, g := range globals {
		if g == name {
			return true
		}
	}
	return false
}

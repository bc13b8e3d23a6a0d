package netlist

import (
	"fmt"

	"subgemini/internal/graph"
)

// Terminal-class vectors for the primitive elements; MOS classes follow
// paper §II (interchangeable source/drain, distinct gate, distinct bulk).
var (
	mos3Classes = []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}
	mos4Classes = []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS, graph.ClassBulk}
	twoSym      = []graph.TermClass{0, 0}
	diodeCls    = []graph.TermClass{0, 1}
)

// elementType returns the device type of a primitive element card.
func elementType(c Card) string {
	switch c.Kind {
	case 'M':
		return MOSType(c.Ref)
	case 'R':
		return "res"
	case 'C':
		return "cap"
	}
	return "diode"
}

// cardClasses returns the terminal classes the reader gives an element
// card of the given kind and net count, or nil when no such card parses.
// RoundTrips holds stored circuits to the same table.
func cardClasses(kind byte, nets int) []graph.TermClass {
	switch {
	case kind == 'M' && nets == 3:
		return mos3Classes
	case kind == 'M' && nets == 4:
		return mos4Classes
	case (kind == 'R' || kind == 'C') && nets == 2:
		return twoSym
	case kind == 'D' && nets == 2:
		return diodeCls
	}
	return nil
}

// Pattern builds the named .SUBCKT as a pattern circuit: its ports become
// external nets and nets listed in .GLOBAL are marked global.  Instance
// cards inside the subcircuit are flattened recursively.
func (f *File) Pattern(name string) (*graph.Circuit, error) {
	sub, ok := f.Subckts[name]
	if !ok {
		return nil, fmt.Errorf("netlist: no .SUBCKT named %q", name)
	}
	ckt := graph.New(name)
	bound := make(map[string]*graph.Net, len(sub.Ports))
	for _, p := range sub.Ports {
		bound[p] = ckt.AddNet(p)
	}
	if err := f.expand(ckt, sub, "", bound, nil); err != nil {
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

// MainCircuit builds the flat main circuit from the file's top-level cards,
// flattening every subcircuit instance.  name becomes the circuit name.
func (f *File) MainCircuit(name string) (*graph.Circuit, error) {
	if len(f.Top) == 0 {
		return nil, fmt.Errorf("netlist: no top-level cards in %s", name)
	}
	ckt := graph.New(name)
	top := &Subckt{Name: name, Cards: f.Top}
	if err := f.expand(ckt, top, "", nil, nil); err != nil {
		return nil, err
	}
	for _, g := range f.Globals {
		ckt.MarkGlobal(g)
	}
	return ckt, nil
}

// expand adds the cards of sub to ckt.  prefix qualifies device and local
// net names ("x1/"); bound maps the subcircuit's port and global names to
// existing nets of ckt; stack detects recursive instantiation.
func (f *File) expand(ckt *graph.Circuit, sub *Subckt, prefix string, bound map[string]*graph.Net, stack []string) error {
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
		if isGlobal(f.Globals, netName) {
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
			nets = resolveAll(nets, resolve, card.Nets)
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
			if err := f.expand(ckt, inner, prefix+card.Name+"/", innerBound, stack); err != nil {
				return err
			}
		default:
			return fmt.Errorf("netlist: line %d: unhandled card kind %c", card.Line, card.Kind)
		}
	}
	return nil
}

// resolveAll resolves names into buf, reusing its storage.
func resolveAll(buf []*graph.Net, resolve func(string) *graph.Net, names []string) []*graph.Net {
	buf = buf[:0]
	for _, n := range names {
		buf = append(buf, resolve(n))
	}
	return buf
}

func isGlobal(globals []string, name string) bool {
	for _, g := range globals {
		if g == name {
			return true
		}
	}
	return false
}

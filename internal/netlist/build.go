package netlist

import (
	"fmt"
	"strings"

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
// cards inside the subcircuit are flattened recursively.  The pattern
// copies the names it keeps, so it does not keep the source text alive:
// pattern caches hold patterns for long, and one may be a small cell of a
// large netlist.
func (f *File) Pattern(name string) (*graph.Circuit, error) {
	sub, ok := f.Subckts[name]
	if !ok {
		return nil, fmt.Errorf("netlist: no .SUBCKT named %q", name)
	}
	ckt, err := f.flatten(name, sub, sub.Ports, true)
	if err != nil {
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
	ckt, err := f.flatten(name, &Subckt{Name: name, Cards: f.Top}, nil, false)
	if err != nil {
		return nil, err
	}
	for _, g := range f.Globals {
		ckt.MarkGlobal(g)
	}
	return ckt, nil
}

// flatten builds root, with the named nets created first, in two steps.
// One walk of the hierarchy resolves every pin's net to an index, numbering
// nets by first appearance, and records each device; graph.Build then
// makes the circuit from those tables.  The walk's tables start at sizes
// taken from root's own cards (nets: about one per two devices, as in
// transistor netlists) and grow by append: nothing is sized from the
// expanded hierarchy, which a few hundred bytes of nested .SUBCKTs can make
// astronomically large.  With copyNames set, the circuit's net and device
// names are copies rather than substrings of the source.
//
// Errors come in card order, as if devices were added one by one: the walk
// stops at the first instance error, and a duplicate device name (which
// Build finds) recorded before that point wins over it.
func (f *File) flatten(name string, root *Subckt, first []string, copyNames bool) (*graph.Circuit, error) {
	pins := 0
	for i := range root.Cards {
		pins += len(root.Cards[i].Nets)
	}
	w := &walker{
		f:     f,
		ids:   make(map[string]int32, len(root.Cards)/2),
		nets:  make([]string, 0, len(root.Cards)/2),
		devs:  make([]graph.DeviceSpec, 0, len(root.Cards)),
		lines: make([]int, 0, len(root.Cards)),
		pins:  make([]int32, 0, pins),
	}
	for _, n := range first {
		w.net(n)
	}
	werr := w.expand(root, "", nil)
	if copyNames {
		for i := range w.nets {
			w.nets[i] = strings.Clone(w.nets[i])
		}
		for i := range w.devs {
			w.devs[i].Name = strings.Clone(w.devs[i].Name)
		}
	}
	ckt, bad, err := graph.Build(name, w.nets, w.devs)
	if err != nil {
		return nil, fmt.Errorf("netlist: line %d: %w", w.lines[bad], err)
	}
	if werr != nil {
		return nil, werr
	}
	return ckt, nil
}

// walker resolves a hierarchy into the tables graph.Build takes.
type walker struct {
	f     *File
	ids   map[string]int32 // net name -> index into nets
	nets  []string         // net names in first-appearance order
	devs  []graph.DeviceSpec
	lines []int   // each device's card line, for errors
	pins  []int32 // every device's net indexes; DeviceSpec.Nets are windows
	stack []string
	key   []byte // prefix + name, for lookups that need not allocate
}

// net returns the index of the named net, numbering a new one.
func (w *walker) net(name string) int32 {
	if id, ok := w.ids[name]; ok {
		return id
	}
	return w.add(name)
}

func (w *walker) add(name string) int32 {
	id := int32(len(w.nets))
	w.nets = append(w.nets, name)
	w.ids[name] = id
	return id
}

// local returns the index of the instance-local net prefix+name.
func (w *walker) local(prefix, name string) int32 {
	w.key = append(append(w.key[:0], prefix...), name...)
	if id, ok := w.ids[string(w.key)]; ok {
		return id
	}
	return w.add(string(w.key))
}

// expand walks sub's cards.  At the root prefix is empty and every name is
// a net of its own.  An instance qualifies its device names with prefix
// ("x1/"), and a pin name resolves to the net bound to that port, else to
// the .GLOBAL net of that name, else to the local net prefix+name.
func (w *walker) expand(sub *Subckt, prefix string, bound map[string]int32) error {
	for _, s := range w.stack {
		if s == sub.Name {
			return fmt.Errorf("netlist: recursive instantiation of %s (via %v)", sub.Name, w.stack)
		}
	}
	w.stack = append(w.stack, sub.Name)
	resolve := func(name string) int32 {
		if prefix == "" {
			return w.net(name)
		}
		if id, ok := bound[name]; ok {
			return id
		}
		if isGlobal(w.f.Globals, name) {
			return w.net(name)
		}
		return w.local(prefix, name)
	}
	for i := range sub.Cards {
		card := &sub.Cards[i]
		switch card.Kind {
		case 'M', 'R', 'C', 'D':
			start := len(w.pins)
			for _, n := range card.Nets {
				w.pins = append(w.pins, resolve(n))
			}
			end := len(w.pins)
			w.devs = append(w.devs, graph.DeviceSpec{
				Name:    prefix + card.Name,
				Type:    elementType(*card),
				Classes: cardClasses(card.Kind, len(card.Nets)),
				Nets:    w.pins[start:end:end],
			})
			w.lines = append(w.lines, card.Line)
		case 'X':
			inner, ok := w.f.Subckts[card.Ref]
			if !ok {
				return fmt.Errorf("netlist: line %d: instance %s references unknown subcircuit %q", card.Line, card.Name, card.Ref)
			}
			if len(card.Nets) != len(inner.Ports) {
				return fmt.Errorf("netlist: line %d: instance %s connects %d nets to %s which has %d ports",
					card.Line, card.Name, len(card.Nets), inner.Name, len(inner.Ports))
			}
			innerBound := make(map[string]int32, len(inner.Ports))
			for k, p := range inner.Ports {
				innerBound[p] = resolve(card.Nets[k])
			}
			if err := w.expand(inner, prefix+card.Name+"/", innerBound); err != nil {
				return err
			}
		default:
			return fmt.Errorf("netlist: line %d: unhandled card kind %c", card.Line, card.Kind)
		}
	}
	w.stack = w.stack[:len(w.stack)-1]
	return nil
}

func isGlobal(globals []string, name string) bool {
	for _, g := range globals {
		if g == name {
			return true
		}
	}
	return false
}

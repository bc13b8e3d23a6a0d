// Package extract implements the applications the paper's introduction
// motivates on top of the SubGemini matcher:
//
//   - converting a transistor netlist into a gate netlist by finding each
//     library cell's subcircuits and replacing them with a single
//     higher-level device;
//   - building a hierarchical representation of a flat circuit;
//   - reviewing circuits for questionable constructs described as pattern
//     circuits in an extensible rule library (paper §I).
//
// Extraction follows the partial order the paper describes in §V.A: cells
// are matched from largest to smallest so that, e.g., every NAND gate is
// claimed before the inverter pattern could claim its output stage.
package extract

import (
	"fmt"
	"sort"
	"sync"

	"subgemini/internal/core"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

// Extraction reports one cell's extraction round.
type Extraction struct {
	Cell  string
	Count int
}

// Options configures extraction.
type Options struct {
	// Globals lists the special-signal nets (normally the supply rails);
	// extraction without special rails would find inverters inside every
	// NAND (paper Fig. 7), so an empty list is almost always a mistake —
	// but it is allowed, for experiments.
	Globals []string
	// Prefix names replacement devices ("u" by default).
	Prefix string
	// Seed is passed through to the matcher.
	Seed uint64
	// Cancel, when non-nil, is passed through to every per-cell matcher
	// (see core.Options.Cancel); the first non-nil return aborts the
	// extraction.  Long extractions driven by subgeminid jobs wire the job
	// context in here so a cancelled job frees its worker promptly.
	Cancel func() error
}

func (o *Options) prefix() string {
	if o.Prefix == "" {
		return "u"
	}
	return o.Prefix
}

// Spec describes one library pattern for extraction: a subcircuit with its
// port order, independent of where it came from (the built-in cell library,
// a user netlist, or a hand-built graph).
type Spec struct {
	// Name becomes the device type of the replacement component.
	Name string
	// Ports orders the replacement component's terminals; every name must
	// be a port net of Pattern.
	Ports []string
	// Pattern is the subcircuit to search for, with its port nets marked.
	Pattern *graph.Circuit
}

// Size is the number of devices in the pattern, which drives the
// largest-first extraction order.
func (s *Spec) Size() int { return s.Pattern.NumDevices() }

// cellTemplates memoizes CellDef.Pattern() per cell definition, so repeated
// extractions (every Cells call, every daemon extract job) stop recompiling
// the same library cells.  The map is keyed by definition pointer and the
// registry is fixed at init, so it is naturally bounded; cached templates
// are never handed out directly — callers get clones.
var cellTemplates sync.Map // *stdcell.CellDef -> *graph.Circuit

// SpecFromCell adapts a built-in library cell.  The cell's pattern circuit
// is compiled once and cloned per call.
func SpecFromCell(cell *stdcell.CellDef) Spec {
	if t, ok := cellTemplates.Load(cell); ok {
		return Spec{Name: cell.Name, Ports: cell.Ports, Pattern: t.(*graph.Circuit).Clone()}
	}
	t := cell.Pattern()
	cellTemplates.Store(cell, t.Clone())
	return Spec{Name: cell.Name, Ports: cell.Ports, Pattern: t}
}

// SpecsFromNetlist turns every .SUBCKT of a parsed netlist into an
// extraction spec, in name order and under one device budget (see
// netlist.File.Patterns), so users extend the extraction library by writing
// subcircuits — "circuits in a library which can be easily extended as
// necessary" (paper §I).
func SpecsFromNetlist(f *netlist.File) ([]Spec, error) {
	pats, err := f.Patterns()
	if err != nil {
		return nil, err
	}
	specs := make([]Spec, len(pats))
	for i, pat := range pats {
		specs[i] = Spec{Name: pat.Name, Ports: f.Subckts[pat.Name].Ports, Pattern: pat}
	}
	return specs, nil
}

// Cells extracts every given cell from the circuit, in decreasing
// transistor-count order (ties broken by name for determinism), replacing
// each found instance's devices with a single device whose type is the cell
// name and whose pins are the images of the cell's ports.  The circuit is
// modified in place, and its nets named in opts.Globals are marked global,
// so a netlist written from it declares them.  It returns the per-cell
// extraction counts in the order processed.
func Cells(c *graph.Circuit, cells []*stdcell.CellDef, opts Options) ([]Extraction, error) {
	specs := make([]Spec, len(cells))
	for i, cell := range cells {
		specs[i] = SpecFromCell(cell)
	}
	return Specs(c, specs, opts)
}

// Specs is Cells for arbitrary pattern specs.
//
// Unlike rule checking, the spec loop cannot delegate to a library sweep:
// each round that extracts instances mutates the circuit, and under the
// paper's induced-subgraph semantics removing devices can create instances
// of a later cell that did not exist before (an extra load on an internal
// net blocks a match until the loading device is itself extracted), so no
// cell's result — not even a zero count — can be precomputed on the
// unmutated circuit.  What can be amortized safely is amortized: one
// matcher — with its CSR view, which carries the Phase II scratch pool and
// caches the initial labeling — is reused across consecutive rounds that
// extract nothing and therefore leave the circuit untouched.
func Specs(c *graph.Circuit, specs []Spec, opts Options) ([]Extraction, error) {
	ordered := append([]Spec(nil), specs...)
	sort.Slice(ordered, func(i, j int) bool {
		if a, b := ordered[i].Size(), ordered[j].Size(); a != b {
			return a > b
		}
		return ordered[i].Name < ordered[j].Name
	})
	markGlobals(c, &opts)
	var result []Extraction
	serial := 0
	var m *core.Matcher
	for _, spec := range ordered {
		if m == nil {
			var err error
			if m, err = extractMatcher(c, &opts); err != nil {
				return result, fmt.Errorf("extract: %s: %w", spec.Name, err)
			}
		}
		count, err := one(c, spec, &opts, &serial, m)
		if err != nil {
			return result, fmt.Errorf("extract: %s: %w", spec.Name, err)
		}
		if count > 0 {
			// The circuit changed shape; the matcher's cached views are
			// stale and its consumed marks refer to removed devices.
			m = nil
		}
		result = append(result, Extraction{Cell: spec.Name, Count: count})
	}
	return result, nil
}

// markGlobals marks opts.Globals on the circuit an extraction rewrites: the
// matcher applies them to its runs only, and the gate-level netlist keeps
// declaring them.
func markGlobals(c *graph.Circuit, opts *Options) {
	for _, name := range opts.Globals {
		c.MarkGlobal(name)
	}
}

// extractMatcher builds the NonOverlapping matcher one() drives.
func extractMatcher(c *graph.Circuit, opts *Options) (*core.Matcher, error) {
	return core.NewMatcher(c, core.Options{
		Globals: opts.Globals,
		Policy:  core.NonOverlapping,
		Seed:    opts.Seed,
		Cancel:  opts.Cancel,
	})
}

// One extracts a single cell from the circuit in place, marking
// opts.Globals on it as Cells does, and returns how many instances were
// replaced.
func One(c *graph.Circuit, cell *stdcell.CellDef, opts Options) (int, error) {
	markGlobals(c, &opts)
	serial := 0
	m, err := extractMatcher(c, &opts)
	if err != nil {
		return 0, err
	}
	return one(c, SpecFromCell(cell), &opts, &serial, m)
}

func one(c *graph.Circuit, cell Spec, opts *Options, serial *int, m *core.Matcher) (int, error) {
	pat := cell.Pattern
	// The circuit also keeps the special signals a pattern declares, so
	// later rounds match under them too and the written netlist declares
	// every special signal the extraction used.
	for _, n := range pat.Globals() {
		c.MarkGlobal(n.Name)
	}
	res, err := m.Find(pat)
	if err != nil {
		return 0, err
	}
	if len(res.Instances) == 0 {
		return 0, nil
	}
	// Replace each instance: delete its devices, add one cell-typed device
	// connected to the port images.  Each port gets its own terminal class;
	// symmetry between cell ports (NAND2's A and B) is not encoded in the
	// replacement because extraction must preserve, not equate, the two
	// connections.
	classes := make([]graph.TermClass, len(cell.Ports))
	for i := range classes {
		classes[i] = graph.TermClass(i)
	}
	doomed := make(map[*graph.Device]bool)
	type replacement struct {
		name string
		nets []*graph.Net
	}
	var reps []replacement
	for _, inst := range res.Instances {
		for _, gd := range inst.DevMap {
			doomed[gd] = true
		}
		nets := make([]*graph.Net, len(cell.Ports))
		for i, port := range cell.Ports {
			pn := pat.NetByName(port)
			img := inst.NetMap[pn]
			if img == nil {
				return 0, fmt.Errorf("instance of %s has no image for port %s", cell.Name, port)
			}
			nets[i] = img
		}
		*serial++
		reps = append(reps, replacement{
			name: fmt.Sprintf("%s%d_%s", opts.prefix(), *serial, cell.Name),
			nets: nets,
		})
	}
	c.RemoveDevices(doomed)
	for _, r := range reps {
		// Port images can have been dropped by RemoveDevices if the
		// instance was the net's only load; re-adding by name resurrects
		// them.
		nets := make([]*graph.Net, len(r.nets))
		for i, n := range r.nets {
			nets[i] = c.AddNet(n.Name)
			nets[i].Global = nets[i].Global || n.Global
		}
		if _, err := c.AddDevice(r.name, cell.Name, classes, nets); err != nil {
			return 0, err
		}
	}
	return len(res.Instances), nil
}

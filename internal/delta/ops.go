// Package delta implements the circuit mutation subsystem: a JSON edit-op
// vocabulary over stored circuits (add/remove device, add/remove/rename
// net, rewire pin), per-edit Steps that record how vertex indices moved and
// which vertices an edit dirtied, composition of consecutive steps into the
// core.DirtySet the incremental matcher consumes, a canonical pattern key,
// and a versioned result cache mapping (circuit, pattern) to the captured
// state of the last complete run.
//
// A batch applies in place and atomically: Apply records the inverse of
// every mutation (graph.Circuit.Record), so a failed op rolls the whole
// batch back and leaves the circuit exactly as it was, and ApplyUndo hands
// the rollback to a caller that must abandon a batch that did apply.  The
// store edits its circuit in place when no reader holds it and edits a
// clone otherwise, so in-flight matches keep a consistent view (snapshot
// isolation).  All mutators preserve the relative order of surviving pins
// and connections — the property the incremental CSR patcher (csr.Patch)
// and Phase II outcome replay both rely on.
package delta

import (
	"fmt"

	"subgemini/internal/graph"
)

// Op kinds.
const (
	OpAddDevice    = "add_device"
	OpRemoveDevice = "remove_device"
	OpAddNet       = "add_net"
	OpRemoveNet    = "remove_net"
	OpRenameNet    = "rename_net"
	OpRewirePin    = "rewire_pin"
)

// Op is one JSON edit operation.  Fields are per-kind:
//
//	add_device:    name, type, classes (terminal class per pin), nets (net
//	               name per pin; absent nets are created)
//	remove_device: name (floating non-port, non-global nets are removed too)
//	add_net:       name, port, global
//	remove_net:    name (must have no connections; globals are refused)
//	rename_net:    old, new (globals are refused — they match by name)
//	rewire_pin:    device, pin, net (absent target nets are created)
type Op struct {
	Op      string   `json:"op"`
	Name    string   `json:"name,omitempty"`
	Type    string   `json:"type,omitempty"`
	Classes []int    `json:"classes,omitempty"`
	Nets    []string `json:"nets,omitempty"`
	Port    bool     `json:"port,omitempty"`
	Global  bool     `json:"global,omitempty"`
	Old     string   `json:"old,omitempty"`
	New     string   `json:"new,omitempty"`
	Device  string   `json:"device,omitempty"`
	Pin     int      `json:"pin,omitempty"`
	Net     string   `json:"net,omitempty"`
}

// editor accumulates the pre-batch vertex lists and dirty marks of one
// Apply.  oldDevs and oldNets are taken just before the batch first
// removes a vertex of their kind: until then the batch has only appended,
// so the circuit's first numDevs devices and numNets nets are the pre-batch
// ones.  A batch that removes nothing copies neither list.
type editor struct {
	c                *graph.Circuit
	numDevs, numNets int
	oldDevs          []*graph.Device
	oldNets          []*graph.Net
	dirtyDev         map[*graph.Device]bool
	dirtyNet         map[*graph.Net]bool
	touched          map[string]bool
}

func newEditor(c *graph.Circuit) *editor {
	return &editor{
		c:        c,
		numDevs:  len(c.Devices),
		numNets:  len(c.Nets),
		dirtyDev: make(map[*graph.Device]bool),
		dirtyNet: make(map[*graph.Net]bool),
		touched:  make(map[string]bool),
	}
}

// beforeRemoval keeps the pre-batch vertex lists a removal is about to
// change: the nets always, the devices when devices is set.
func (e *editor) beforeRemoval(devices bool) {
	if devices && e.oldDevs == nil {
		e.oldDevs = append([]*graph.Device(nil), e.c.Devices[:e.numDevs]...)
	}
	if e.oldNets == nil {
		e.oldNets = append([]*graph.Net(nil), e.c.Nets[:e.numNets]...)
	}
}

// ensureNet resolves a net by name, creating (and marking as
// identity-touched) one when absent.  Created or not, the net is dirty:
// either it is new or a pin lands on it.
func (e *editor) ensureNet(name string) (*graph.Net, error) {
	if name == "" {
		return nil, fmt.Errorf("delta: empty net name")
	}
	n := e.c.NetByName(name)
	if n == nil {
		n = e.c.AddNet(name)
		e.touched[name] = true
	}
	e.dirtyNet[n] = true
	return n, nil
}

func (e *editor) apply(op Op) error {
	switch op.Op {
	case OpAddDevice:
		if op.Name == "" || op.Type == "" {
			return fmt.Errorf("delta: add_device needs name and type")
		}
		if op.Type == graph.WildcardType {
			return fmt.Errorf("delta: add_device %s: wildcard devices are for patterns only", op.Name)
		}
		if len(op.Classes) != len(op.Nets) || len(op.Nets) == 0 {
			return fmt.Errorf("delta: add_device %s: classes and nets must be non-empty and equal length", op.Name)
		}
		nets := make([]*graph.Net, len(op.Nets))
		classes := make([]graph.TermClass, len(op.Classes))
		for i, name := range op.Nets {
			n, err := e.ensureNet(name)
			if err != nil {
				return err
			}
			nets[i] = n
			if op.Classes[i] < 0 || op.Classes[i] > 255 {
				return fmt.Errorf("delta: add_device %s: terminal class %d out of range", op.Name, op.Classes[i])
			}
			classes[i] = graph.TermClass(op.Classes[i])
		}
		d, err := e.c.AddDevice(op.Name, op.Type, classes, nets)
		if err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		e.dirtyDev[d] = true
		return nil

	case OpRemoveDevice:
		d := e.c.DeviceByName(op.Name)
		if d == nil {
			return fmt.Errorf("delta: remove_device: no device %q", op.Name)
		}
		// Nets left floating by this removal are themselves removed (unless
		// port or global); their identity changes, so record them touched.
		for _, p := range d.Pins {
			external := 0
			for _, conn := range p.Net.Conns {
				if conn.Dev != d {
					external++
				}
			}
			if external == 0 && !p.Net.Port && !p.Net.Global {
				e.touched[p.Net.Name] = true
			} else {
				e.dirtyNet[p.Net] = true
			}
		}
		e.beforeRemoval(true)
		if err := e.c.RemoveDevice(op.Name); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		return nil

	case OpAddNet:
		if op.Name == "" {
			return fmt.Errorf("delta: add_net needs a name")
		}
		if e.c.NetByName(op.Name) != nil {
			return fmt.Errorf("delta: add_net: net %q already exists", op.Name)
		}
		n := e.c.AddNet(op.Name)
		n.Port = op.Port
		if op.Global {
			e.c.MarkGlobal(op.Name)
		}
		e.touched[op.Name] = true
		e.dirtyNet[n] = true
		return nil

	case OpRemoveNet:
		n := e.c.NetByName(op.Name)
		if n == nil {
			return fmt.Errorf("delta: remove_net: no net %q", op.Name)
		}
		if n.Global {
			// Globals are matched by name across every pattern; removing one
			// is a semantic change that warrants a re-upload, not an edit.
			return fmt.Errorf("delta: remove_net: %q is global", op.Name)
		}
		e.beforeRemoval(false)
		if err := e.c.RemoveNet(op.Name); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		e.touched[op.Name] = true
		return nil

	case OpRenameNet:
		n := e.c.NetByName(op.Old)
		if n == nil {
			return fmt.Errorf("delta: rename_net: no net %q", op.Old)
		}
		if n.Global {
			return fmt.Errorf("delta: rename_net: %q is global", op.Old)
		}
		if err := e.c.RenameNet(op.Old, op.New); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		// Renames change identity only: no label in either phase depends on
		// a non-global net's name, so nothing is dirty — but bind targets
		// resolve by name, which Touched lets the matcher check.
		e.touched[op.Old] = true
		e.touched[op.New] = true
		return nil

	case OpRewirePin:
		d := e.c.DeviceByName(op.Device)
		if d == nil {
			return fmt.Errorf("delta: rewire_pin: no device %q", op.Device)
		}
		if op.Pin < 0 || op.Pin >= len(d.Pins) {
			return fmt.Errorf("delta: rewire_pin: device %q has no pin %d", op.Device, op.Pin)
		}
		target, err := e.ensureNet(op.Net)
		if err != nil {
			return err
		}
		old := d.Pins[op.Pin].Net
		if old == target {
			return nil
		}
		e.dirtyNet[old] = true
		e.dirtyDev[d] = true
		if err := e.c.RewirePin(op.Device, op.Pin, target); err != nil {
			return fmt.Errorf("delta: %w", err)
		}
		return nil

	default:
		return fmt.Errorf("delta: unknown op %q", op.Op)
	}
}

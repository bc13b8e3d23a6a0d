// Package graph implements the bipartite circuit-graph model used by
// SubGemini and Gemini (Ohlrich et al., DAC 1993, §II).
//
// A circuit graph is an undirected bipartite graph: device vertices
// (transistors, gates, or arbitrary higher-level components) on one side and
// net vertices (wires) on the other.  A device connects to nets through
// terminals (pins); each terminal belongs to a terminal equivalence class
// that captures interchangeability of connections — e.g. the two
// source/drain terminals of a MOS transistor share one class while the gate
// terminal has its own.  Representing nets as explicit vertices keeps the
// edge count linear in the number of terminals and exposes circuit structure
// to the partitioning algorithm.
//
// Connection order: every mutator and Clone keep the relative order of the
// connections in each Net.Conns that they do not add or remove (additions
// append).  The incremental CSR patcher (internal/csr.Patch) splices the
// rows of unedited nets verbatim on the strength of this guarantee, so its
// output stays bit-identical to a fresh build of the edited circuit.
//
// Allocation: a circuit takes its Device, Net and Pin values from blocks
// it allocates in proportion to its size, not one allocation each, and
// Clone copies a circuit into one exact-size slab per kind (devices, pins,
// nets, connections).  Cloning therefore costs O(1) allocations besides
// the name maps' tables, and building a circuit vertex by vertex allocates
// only as its nets' connection lists grow.  Build, the bulk constructor the
// netlist reader uses, carves every connection list from one exact-size
// slab instead.  Vertex pointers stay stable for the circuit's lifetime.
//
// Undo: while a circuit records (Record), every mutator logs its inverse,
// so a batch of edits made in place can be rolled back exactly (undo.go).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// TermClass identifies a terminal equivalence class within a device type.
// Two pins of the same device type with the same TermClass may be swapped
// without changing the circuit (paper §II).  Class values are small integers
// assigned by the device-type definition; they are compared only between
// devices of the same type.
type TermClass uint8

// Pin is one terminal of a device: the class it belongs to and the net it
// connects to.
type Pin struct {
	Class TermClass
	Net   *Net
}

// WildcardType is the device type that, in a pattern, matches a device of
// any type with the same terminal count and classes.  It never appears in
// main circuits.
const WildcardType = "*"

// Device is a device vertex.  Type distinguishes devices by function
// ("nmos", "pmos", or any higher-level component name); in a pattern it
// may be WildcardType.  Pins are the device's terminals in declaration
// order.
type Device struct {
	// Index is the position of the device in Circuit.Devices.  It is
	// maintained by the Circuit mutators and used as a dense array key by
	// the labeling machinery.
	Index int
	Name  string
	Type  string
	Pins  []Pin
}

// Conn is a back-reference from a net to one device terminal attached to it.
type Conn struct {
	Dev *Device
	// Pin is the index into Dev.Pins of the terminal on this net.
	Pin int
}

// Net is a net (wire) vertex.  Conns lists every device terminal attached to
// the net; its length is the net's degree.  Note that two terminals of the
// same device on one net contribute two entries (the degree counts pins, not
// distinct devices — the finer invariant, applied consistently to both the
// pattern and the main graph).
type Net struct {
	// Index is the position of the net in Circuit.Nets, maintained by the
	// Circuit mutators.
	Index int
	Name  string
	Conns []Conn

	// Port marks the net as part of the circuit's external interface.  In a
	// pattern (subcircuit) graph, port nets are the external nets of the
	// paper: they may connect to arbitrary additional devices in the main
	// graph, so their labels start corrupt in Phase I.
	Port bool

	// Global marks the net as a special signal (Vdd, GND, clk, ...).  Global
	// nets are matched by name rather than by structure and are never
	// labeled (paper §V.A).
	Global bool
}

// Degree returns the number of device terminals attached to the net.
func (n *Net) Degree() int { return len(n.Conns) }

// Circuit is a circuit graph: a named collection of device and net vertices.
// The zero value is not ready for use; call New.
type Circuit struct {
	Name    string
	Devices []*Device
	Nets    []*Net

	netByName map[string]*Net
	devByName map[string]*Device

	// undo, when non-nil, logs the inverse of every mutation (see Record).
	undo *Undo

	// Unused tails of the current allocation blocks: AddNet and AddDevice
	// take their values from these and allocate a fresh block only when
	// one runs dry (see blockLen).
	netFree []Net
	devFree []Device
	pinFree []Pin
}

// Block sizing: a new block holds as many values as the circuit already
// has (doubling, like append), at least minBlock so tiny patterns do not
// allocate per vertex and at most maxBlock so a large circuit wastes at
// most one block's tail.  Pin blocks assume pinsPerDevice pins a device,
// the MOS terminal count.
const (
	minBlock      = 4
	maxBlock      = 1024
	pinsPerDevice = 4
)

func blockLen(have int) int { return min(max(have, minBlock), maxBlock) }

// newNet takes a zeroed Net from the current block.
func (c *Circuit) newNet() *Net {
	if len(c.netFree) == 0 {
		c.netFree = make([]Net, blockLen(len(c.Nets)))
	}
	n := &c.netFree[0]
	c.netFree = c.netFree[1:]
	return n
}

// newDevice takes a zeroed Device from the current block, with k pins
// from the current pin block.  Pins is capped at k so an append can never
// spill into a neighbour's pins.
func (c *Circuit) newDevice(k int) *Device {
	if len(c.devFree) == 0 {
		c.devFree = make([]Device, blockLen(len(c.Devices)))
	}
	d := &c.devFree[0]
	c.devFree = c.devFree[1:]
	if len(c.pinFree) < k {
		c.pinFree = make([]Pin, max(k, pinsPerDevice*blockLen(len(c.Devices))))
	}
	d.Pins = c.pinFree[:k:k]
	c.pinFree = c.pinFree[k:]
	return d
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{
		Name:      name,
		netByName: make(map[string]*Net),
		devByName: make(map[string]*Device),
	}
}

// AddNet creates a net with the given name and returns it.  Adding a name
// that already exists returns the existing net, so builders may freely call
// AddNet to mean "ensure net".
func (c *Circuit) AddNet(name string) *Net {
	if n, ok := c.netByName[name]; ok {
		return n
	}
	n := c.newNet()
	n.Index, n.Name = len(c.Nets), name
	c.Nets = append(c.Nets, n)
	c.netByName[name] = n
	if c.undo != nil {
		c.undo.log(func() {
			c.Nets[n.Index] = nil
			c.Nets = c.Nets[:n.Index]
			delete(c.netByName, n.Name)
		})
	}
	return n
}

// NetByName returns the net with the given name, or nil if absent.
func (c *Circuit) NetByName(name string) *Net { return c.netByName[name] }

// DeviceByName returns the device with the given name, or nil if absent.
func (c *Circuit) DeviceByName(name string) *Device { return c.devByName[name] }

// AddDevice creates a device of the given type whose i'th terminal has class
// classes[i] and connects to nets[i].  The two slices must have equal,
// nonzero length and the device name must be unique within the circuit.
func (c *Circuit) AddDevice(name, typ string, classes []TermClass, nets []*Net) (*Device, error) {
	if err := checkTerminals(name, len(classes), len(nets)); err != nil {
		return nil, err
	}
	if _, dup := c.devByName[name]; dup {
		return nil, errDuplicateDevice(name)
	}
	for i, n := range nets {
		if n == nil {
			return nil, fmt.Errorf("graph: device %s: terminal %d has nil net", name, i)
		}
	}
	d := c.newDevice(len(nets))
	d.Index, d.Name, d.Type = len(c.Devices), name, typ
	for i, n := range nets {
		d.Pins[i] = Pin{Class: classes[i], Net: n}
		n.Conns = append(n.Conns, Conn{Dev: d, Pin: i})
	}
	c.Devices = append(c.Devices, d)
	c.devByName[name] = d
	if c.undo != nil {
		c.undo.log(func() {
			for i := len(d.Pins) - 1; i >= 0; i-- {
				n := d.Pins[i].Net
				n.Conns = n.Conns[:len(n.Conns)-1]
			}
			c.Devices[d.Index] = nil
			c.Devices = c.Devices[:d.Index]
			delete(c.devByName, d.Name)
		})
	}
	return d, nil
}

// checkTerminals reports a device whose class and net counts differ or
// that has no terminals; AddDevice and Build refuse both.
func checkTerminals(name string, classes, nets int) error {
	if classes != nets {
		return fmt.Errorf("graph: device %s: %d classes but %d nets", name, classes, nets)
	}
	if nets == 0 {
		return fmt.Errorf("graph: device %s: no terminals", name)
	}
	return nil
}

func errDuplicateDevice(name string) error {
	return fmt.Errorf("graph: duplicate device name %q", name)
}

// DeviceSpec describes one device for Build: its name and type, and the
// class and the net (an index into Build's nets) of each terminal.
type DeviceSpec struct {
	Name, Type string
	Classes    []TermClass
	Nets       []int32
}

// Build returns the circuit that AddNet for each name in nets, in order,
// followed by AddDevice for each spec in devs, in order, would build, but
// builds it in bulk: the name maps are sized to the tables, devices and
// pins come from the circuit's blocks, and every Net.Conns is carved from
// one exact-size slab, filled in (device, pin) order.  The caller has
// materialized both tables, so their lengths bound everything Build
// allocates.  When a device fails one of AddDevice's checks, Build returns
// its index with AddDevice's error and no circuit.  Net names must be
// distinct and every net index in range; anything else is a caller bug and
// panics.
func Build(name string, nets []string, devs []DeviceSpec) (*Circuit, int, error) {
	c := &Circuit{
		Name:      name,
		Devices:   make([]*Device, 0, len(devs)),
		Nets:      make([]*Net, 0, len(nets)),
		netByName: make(map[string]*Net, len(nets)),
		devByName: make(map[string]*Device, len(devs)),
	}
	for i, nm := range nets {
		n := c.newNet()
		n.Index, n.Name = i, nm
		c.Nets = append(c.Nets, n)
		c.netByName[nm] = n
	}
	if len(c.netByName) != len(nets) {
		panic("graph: Build: duplicate net name")
	}
	// next[i] is where net i's next connection goes: counted degrees, then
	// their prefix sums, then advanced as the devices fill the slab.
	next := make([]int32, len(nets)+1)
	for _, s := range devs {
		for _, ni := range s.Nets {
			next[ni+1]++
		}
	}
	for i := range nets {
		next[i+1] += next[i]
	}
	conns := make([]Conn, next[len(nets)])
	for i, n := range c.Nets {
		if lo, hi := next[i], next[i+1]; hi > lo {
			n.Conns = conns[lo:hi:hi]
		}
	}
	for i, s := range devs {
		if err := checkTerminals(s.Name, len(s.Classes), len(s.Nets)); err != nil {
			return nil, i, err
		}
		d := c.newDevice(len(s.Nets))
		d.Index, d.Name, d.Type = i, s.Name, s.Type
		// One map write both inserts and detects a repeated name; on a
		// repeat the circuit is discarded, so the overwrite is harmless.
		c.devByName[s.Name] = d
		if len(c.devByName) != i+1 {
			return nil, i, errDuplicateDevice(s.Name)
		}
		for k, ni := range s.Nets {
			d.Pins[k] = Pin{Class: s.Classes[k], Net: c.Nets[ni]}
			conns[next[ni]] = Conn{Dev: d, Pin: k}
			next[ni]++
		}
		c.Devices = append(c.Devices, d)
	}
	return c, -1, nil
}

// MustAddDevice is AddDevice that panics on error; intended for
// programmatically generated circuits where the inputs are known valid.
func (c *Circuit) MustAddDevice(name, typ string, classes []TermClass, nets []*Net) *Device {
	d, err := c.AddDevice(name, typ, classes, nets)
	if err != nil {
		panic(err)
	}
	return d
}

// MarkPort flags the named net as a port (external net).  It returns an
// error if the net does not exist.
func (c *Circuit) MarkPort(name string) error {
	n := c.netByName[name]
	if n == nil {
		return fmt.Errorf("graph: port %q: no such net in %s", name, c.Name)
	}
	if !n.Port && c.undo != nil {
		c.undo.log(func() { n.Port = false })
	}
	n.Port = true
	return nil
}

// MarkGlobal flags the named net as a special signal.  Unlike MarkPort it is
// a no-op when the net does not exist, because a circuit need not use every
// declared global.
func (c *Circuit) MarkGlobal(name string) {
	if n := c.netByName[name]; n != nil {
		if !n.Global && c.undo != nil {
			c.undo.log(func() { n.Global = false })
		}
		n.Global = true
	}
}

// Ports returns the port nets in index order.
func (c *Circuit) Ports() []*Net {
	var ps []*Net
	for _, n := range c.Nets {
		if n.Port {
			ps = append(ps, n)
		}
	}
	return ps
}

// Globals returns the global (special-signal) nets in index order.
func (c *Circuit) Globals() []*Net {
	var gs []*Net
	for _, n := range c.Nets {
		if n.Global {
			gs = append(gs, n)
		}
	}
	return gs
}

// NumDevices returns the number of device vertices.
func (c *Circuit) NumDevices() int { return len(c.Devices) }

// NumNets returns the number of net vertices.
func (c *Circuit) NumNets() int { return len(c.Nets) }

// NumPins returns the total number of device terminals, which equals the
// number of edges in the bipartite graph.
func (c *Circuit) NumPins() int {
	total := 0
	for _, d := range c.Devices {
		total += len(d.Pins)
	}
	return total
}

// DeviceCounts returns a map from device type to the number of devices of
// that type.
func (c *Circuit) DeviceCounts() map[string]int {
	m := make(map[string]int)
	for _, d := range c.Devices {
		m[d.Type]++
	}
	return m
}

// String summarizes the circuit.
func (c *Circuit) String() string {
	counts := c.DeviceCounts()
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	s := fmt.Sprintf("%s: %d devices, %d nets", c.Name, len(c.Devices), len(c.Nets))
	for _, t := range types {
		s += fmt.Sprintf(", %s=%d", t, counts[t])
	}
	return s
}

// Validate checks structural invariants: index fields agree with slice
// positions, net back-references match device pins, no device has zero pins,
// and names are consistent with the lookup maps.  Generators and the parser
// call Validate in tests; it is O(devices + pins).
func (c *Circuit) Validate() error {
	for i, d := range c.Devices {
		if d.Index != i {
			return fmt.Errorf("graph: device %s has index %d, want %d", d.Name, d.Index, i)
		}
		if len(d.Pins) == 0 {
			return fmt.Errorf("graph: device %s has no pins", d.Name)
		}
		if c.devByName[d.Name] != d {
			return fmt.Errorf("graph: device %s not in name map", d.Name)
		}
		for pi, p := range d.Pins {
			if p.Net == nil {
				return fmt.Errorf("graph: device %s pin %d has nil net", d.Name, pi)
			}
			found := false
			for _, conn := range p.Net.Conns {
				if conn.Dev == d && conn.Pin == pi {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: device %s pin %d missing back-reference on net %s", d.Name, pi, p.Net.Name)
			}
		}
	}
	for i, n := range c.Nets {
		if n.Index != i {
			return fmt.Errorf("graph: net %s has index %d, want %d", n.Name, n.Index, i)
		}
		if c.netByName[n.Name] != n {
			return fmt.Errorf("graph: net %s not in name map", n.Name)
		}
		for _, conn := range n.Conns {
			if conn.Pin < 0 || conn.Pin >= len(conn.Dev.Pins) {
				return fmt.Errorf("graph: net %s references pin %d of device %s (out of range)", n.Name, conn.Pin, conn.Dev.Name)
			}
			if conn.Dev.Pins[conn.Pin].Net != n {
				return fmt.Errorf("graph: net %s back-reference to %s pin %d does not point back", n.Name, conn.Dev.Name, conn.Pin)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the circuit.  The copy shares no vertices
// and no backing arrays with the original, so callers may mutate either
// independently.  Devices, nets, pins and connections are copied into one
// exact-size slab each, and every Net.Conns keeps its order: a clone of an
// edited circuit lists its connections exactly as the original does (the
// guarantee csr.Patch relies on, see the package comment).  Each device's
// Pins and each net's Conns are capped at their length, so appending to
// one never writes into a neighbour's.
func (c *Circuit) Clone() *Circuit {
	numConns := 0
	for _, n := range c.Nets {
		numConns += len(n.Conns)
	}
	nets := make([]Net, len(c.Nets))
	devs := make([]Device, len(c.Devices))
	pins := make([]Pin, c.NumPins())
	conns := make([]Conn, numConns)
	cp := &Circuit{
		Name:      c.Name,
		Devices:   make([]*Device, len(c.Devices)),
		Nets:      make([]*Net, len(c.Nets)),
		netByName: make(map[string]*Net, len(c.Nets)),
		devByName: make(map[string]*Device, len(c.Devices)),
	}
	for i, n := range c.Nets {
		nn := &nets[i]
		nn.Index, nn.Name, nn.Port, nn.Global = i, n.Name, n.Port, n.Global
		cp.Nets[i] = nn
		cp.netByName[n.Name] = nn
	}
	for i, d := range c.Devices {
		nd := &devs[i]
		nd.Index, nd.Name, nd.Type = i, d.Name, d.Type
		k := len(d.Pins)
		nd.Pins, pins = pins[:k:k], pins[k:]
		for pi, p := range d.Pins {
			nd.Pins[pi] = Pin{Class: p.Class, Net: &nets[p.Net.Index]}
		}
		cp.Devices[i] = nd
		cp.devByName[d.Name] = nd
	}
	for i, n := range c.Nets {
		k := len(n.Conns)
		if k == 0 {
			continue
		}
		var nc []Conn
		nc, conns = conns[:k:k], conns[k:]
		for j, conn := range n.Conns {
			nc[j] = Conn{Dev: &devs[conn.Dev.Index], Pin: conn.Pin}
		}
		nets[i].Conns = nc
	}
	return cp
}

// spliceConn removes the back-reference to device d's pin pi from net n,
// preserving the order of the remaining connections.  Order preservation is
// what lets the incremental CSR patcher splice the rows of unedited nets
// verbatim: an edit never reorders the connections it does not touch.
func (c *Circuit) spliceConn(n *Net, d *Device, pi int) {
	for i, conn := range n.Conns {
		if conn.Dev == d && conn.Pin == pi {
			n.Conns = append(n.Conns[:i], n.Conns[i+1:]...)
			if c.undo != nil {
				c.undo.log(func() { n.Conns = slices.Insert(n.Conns, i, conn) })
			}
			return
		}
	}
}

// RemoveDevice deletes the named device, splicing its back-references out
// of the attached nets (preserving the order of every other connection) and
// dropping each of those nets the removal leaves with no connections,
// unless it is a port or global.  Other nets are untouched, floating or
// not.  Surviving devices and nets keep their relative order and are
// reindexed.  It returns an error when the device does not exist.
func (c *Circuit) RemoveDevice(name string) error {
	d := c.devByName[name]
	if d == nil {
		return fmt.Errorf("graph: remove device %q: no such device in %s", name, c.Name)
	}
	for pi, p := range d.Pins {
		c.spliceConn(p.Net, d, pi)
	}
	delete(c.devByName, name)
	at := d.Index
	c.Devices = append(c.Devices[:at], c.Devices[at+1:]...)
	for i := at; i < len(c.Devices); i++ {
		c.Devices[i].Index = i
	}
	if c.undo != nil {
		c.undo.log(func() {
			c.Devices = slices.Insert(c.Devices, at, d)
			for i := at; i < len(c.Devices); i++ {
				c.Devices[i].Index = i
			}
			c.devByName[d.Name] = d
		})
	}
	var dropped []*Net
	for _, p := range d.Pins {
		// The name check skips a net already dropped through another pin.
		if n := p.Net; len(n.Conns) == 0 && !n.Port && !n.Global && c.netByName[n.Name] == n {
			delete(c.netByName, n.Name)
			dropped = append(dropped, n)
		}
	}
	if len(dropped) == 0 {
		return nil
	}
	slices.SortFunc(dropped, func(a, b *Net) int { return a.Index - b.Index })
	first := dropped[0].Index
	kept, k := c.Nets[:first], 0
	for _, n := range c.Nets[first:] {
		if k < len(dropped) && n == dropped[k] {
			k++
			continue
		}
		kept = append(kept, n)
	}
	c.Nets = kept
	for i := first; i < len(c.Nets); i++ {
		c.Nets[i].Index = i
	}
	if c.undo != nil {
		c.undo.log(func() { c.restoreNets(dropped) })
	}
	return nil
}

// RemoveNet deletes the named net.  Only a net with no connections can be
// removed; nets with attached terminals must first have their devices
// removed or rewired.  Surviving nets keep their relative order.
func (c *Circuit) RemoveNet(name string) error {
	n := c.netByName[name]
	if n == nil {
		return fmt.Errorf("graph: remove net %q: no such net in %s", name, c.Name)
	}
	if len(n.Conns) > 0 {
		return fmt.Errorf("graph: remove net %q: still has %d connections", name, len(n.Conns))
	}
	delete(c.netByName, name)
	c.Nets = append(c.Nets[:n.Index], c.Nets[n.Index+1:]...)
	for i := n.Index; i < len(c.Nets); i++ {
		c.Nets[i].Index = i
	}
	if c.undo != nil {
		c.undo.log(func() { c.restoreNets([]*Net{n}) })
	}
	return nil
}

// RenameNet changes a net's name.  The structure is untouched; only the
// name and the lookup map change.  The new name must not be in use.
func (c *Circuit) RenameNet(oldName, newName string) error {
	n := c.netByName[oldName]
	if n == nil {
		return fmt.Errorf("graph: rename net %q: no such net in %s", oldName, c.Name)
	}
	if newName == "" {
		return fmt.Errorf("graph: rename net %q: empty new name", oldName)
	}
	if _, dup := c.netByName[newName]; dup {
		return fmt.Errorf("graph: rename net %q: name %q already in use", oldName, newName)
	}
	delete(c.netByName, oldName)
	n.Name = newName
	c.netByName[newName] = n
	if c.undo != nil {
		c.undo.log(func() {
			delete(c.netByName, newName)
			n.Name = oldName
			c.netByName[oldName] = n
		})
	}
	return nil
}

// RewirePin reconnects one terminal of the named device to a different net:
// the old net's back-reference is spliced out (preserving the order of its
// other connections) and a new back-reference is appended to the target.
func (c *Circuit) RewirePin(devName string, pin int, target *Net) error {
	d := c.devByName[devName]
	if d == nil {
		return fmt.Errorf("graph: rewire %q: no such device in %s", devName, c.Name)
	}
	if pin < 0 || pin >= len(d.Pins) {
		return fmt.Errorf("graph: rewire %s: pin %d out of range (device has %d)", devName, pin, len(d.Pins))
	}
	if target == nil {
		return fmt.Errorf("graph: rewire %s pin %d: nil target net", devName, pin)
	}
	old := d.Pins[pin].Net
	if old == target {
		return nil
	}
	c.spliceConn(old, d, pin)
	d.Pins[pin].Net = target
	target.Conns = append(target.Conns, Conn{Dev: d, Pin: pin})
	if c.undo != nil {
		c.undo.log(func() {
			target.Conns = target.Conns[:len(target.Conns)-1]
			d.Pins[pin].Net = old
		})
	}
	return nil
}

// RemoveDevices deletes the given devices (identified by pointer) and any
// nets left with no connections, then reindexes.  It is used by iterated
// extraction, which consumes matched devices and replaces them with a
// higher-level component.  Devices not present in the circuit are ignored.
// It rebuilds every connection list, which no undo log records, so it
// must not run while the circuit records.
func (c *Circuit) RemoveDevices(doomed map[*Device]bool) {
	if c.undo != nil {
		panic("graph: RemoveDevices while recording an undo log")
	}
	if len(doomed) == 0 {
		return
	}
	keep := c.Devices[:0]
	for _, d := range c.Devices {
		if doomed[d] {
			delete(c.devByName, d.Name)
			continue
		}
		keep = append(keep, d)
	}
	c.Devices = keep
	for i, d := range c.Devices {
		d.Index = i
	}
	// Rebuild net connection lists from the surviving devices.
	for _, n := range c.Nets {
		n.Conns = n.Conns[:0]
	}
	for _, d := range c.Devices {
		for pi, p := range d.Pins {
			p.Net.Conns = append(p.Net.Conns, Conn{Dev: d, Pin: pi})
		}
	}
	// Drop isolated nets (but keep ports and globals: they are part of the
	// circuit's declared interface even when momentarily unconnected).
	keptNets := c.Nets[:0]
	for _, n := range c.Nets {
		if len(n.Conns) == 0 && !n.Port && !n.Global {
			delete(c.netByName, n.Name)
			continue
		}
		keptNets = append(keptNets, n)
	}
	c.Nets = keptNets
	for i, n := range c.Nets {
		n.Index = i
	}
}

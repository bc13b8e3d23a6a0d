package delta

import (
	"fmt"
	"math/rand"
	"testing"

	"subgemini/internal/gen"
	"subgemini/internal/graph"
)

// frozen is a circuit's state before a batch: the vertex objects in order,
// plus a clone holding their field values.
type frozen struct {
	devs []*graph.Device
	nets []*graph.Net
	ref  *graph.Circuit
}

func freeze(c *graph.Circuit) frozen {
	return frozen{
		devs: append([]*graph.Device(nil), c.Devices...),
		nets: append([]*graph.Net(nil), c.Nets...),
		ref:  c.Clone(),
	}
}

// sameAsFrozen fails t unless c is exactly the frozen state: the same
// device and net objects in the same order with the same Index, every Pins
// and Conns entry in order pointing at the same objects, the same name
// lookups (names the batch introduced resolve to nothing), and the same
// Port and Global marks.
func sameAsFrozen(t *testing.T, what string, c *graph.Circuit, f frozen, names []string) {
	t.Helper()
	if len(c.Devices) != len(f.devs) || len(c.Nets) != len(f.nets) {
		t.Fatalf("%s: %d devices, %d nets; want %d, %d", what, len(c.Devices), len(c.Nets), len(f.devs), len(f.nets))
	}
	for i, d := range c.Devices {
		r := f.ref.Devices[i]
		if d != f.devs[i] || d.Index != i || d.Name != r.Name || d.Type != r.Type || len(d.Pins) != len(r.Pins) {
			t.Fatalf("%s: device %d is %s/%d, want the pre-batch %s", what, i, d.Name, d.Index, r.Name)
		}
		for k, p := range d.Pins {
			if p.Class != r.Pins[k].Class || p.Net != f.nets[r.Pins[k].Net.Index] {
				t.Fatalf("%s: device %s pin %d on %s, want %s", what, d.Name, k, p.Net.Name, r.Pins[k].Net.Name)
			}
		}
		if c.DeviceByName(r.Name) != d {
			t.Fatalf("%s: DeviceByName(%q) lost its device", what, r.Name)
		}
	}
	for i, n := range c.Nets {
		r := f.ref.Nets[i]
		if n != f.nets[i] || n.Index != i || n.Name != r.Name || n.Port != r.Port || n.Global != r.Global {
			t.Fatalf("%s: net %d is %s/%d port=%v global=%v, want %s port=%v global=%v",
				what, i, n.Name, n.Index, n.Port, n.Global, r.Name, r.Port, r.Global)
		}
		if len(n.Conns) != len(r.Conns) {
			t.Fatalf("%s: net %s has %d conns, want %d", what, n.Name, len(n.Conns), len(r.Conns))
		}
		for k, conn := range n.Conns {
			if conn.Dev != f.devs[r.Conns[k].Dev.Index] || conn.Pin != r.Conns[k].Pin {
				t.Fatalf("%s: net %s conn %d is %s/%d, want %s/%d", what, n.Name, k,
					conn.Dev.Name, conn.Pin, r.Conns[k].Dev.Name, r.Conns[k].Pin)
			}
		}
		if c.NetByName(r.Name) != n {
			t.Fatalf("%s: NetByName(%q) lost its net", what, r.Name)
		}
	}
	for _, name := range names {
		if d := c.DeviceByName(name); d != nil && f.ref.DeviceByName(name) == nil {
			t.Fatalf("%s: DeviceByName(%q) finds a device the batch added", what, name)
		}
		if n := c.NetByName(name); n != nil && f.ref.NetByName(name) == nil {
			t.Fatalf("%s: NetByName(%q) finds a net the batch added", what, name)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// randomBatch draws n valid ops against c, checking each on shadow (a
// clone that absorbs them), so every op of the batch applies in turn.
// names collects every name the ops mention.
func randomBatch(rng *rand.Rand, c *graph.Circuit, n int, serial *int) (ops []Op, names []string) {
	shadow := c.Clone()
	fresh := func(prefix string) string {
		*serial++
		return fmt.Sprintf("%s%d", prefix, *serial)
	}
	anyNet := func() string {
		if rng.Intn(4) == 0 {
			return fresh("nn")
		}
		return shadow.Nets[rng.Intn(len(shadow.Nets))].Name
	}
	for tries := 0; len(ops) < n && tries < 50*n; tries++ {
		var op Op
		switch rng.Intn(7) {
		case 0, 1:
			d := shadow.Devices[rng.Intn(len(shadow.Devices))]
			op = Op{Op: OpRewirePin, Device: d.Name, Pin: rng.Intn(len(d.Pins)), Net: anyNet()}
		case 2:
			op = Op{Op: OpAddDevice, Name: fresh("Madd"), Type: "nmos", Classes: []int{0, 1, 0}, Nets: []string{anyNet(), anyNet(), anyNet()}}
		case 3:
			if len(shadow.Devices) > 4 {
				op = Op{Op: OpRemoveDevice, Name: shadow.Devices[rng.Intn(len(shadow.Devices))].Name}
			}
		case 4:
			op = Op{Op: OpAddNet, Name: fresh("net"), Port: rng.Intn(2) == 0, Global: rng.Intn(3) == 0}
		case 5:
			// Only a net without connections can go; prefer one.
			n := shadow.Nets[rng.Intn(len(shadow.Nets))]
			for _, m := range shadow.Nets {
				if len(m.Conns) == 0 && !m.Global {
					n = m
				}
			}
			op = Op{Op: OpRemoveNet, Name: n.Name}
		case 6:
			op = Op{Op: OpRenameNet, Old: shadow.Nets[rng.Intn(len(shadow.Nets))].Name, New: fresh("ren")}
		}
		if op.Op == "" {
			continue
		}
		if _, err := Apply(shadow, 2, []Op{op}); err != nil {
			continue
		}
		ops = append(ops, op)
		names = append(names, op.Name, op.Net, op.Old, op.New)
		names = append(names, op.Nets...)
	}
	return ops, names
}

// TestApplyRollsBackExactly: a batch with a failing op at a random position
// leaves the circuit exactly as it was, and ApplyUndo's undo rolls a
// batch that applied back exactly, over random batches of every op kind on
// generated circuits.
func TestApplyRollsBackExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	serial := 0
	circuits := []*graph.Circuit{
		gen.RandomLogic(40, 8, 1).C,
		gen.RippleAdder(3).C,
		gen.NandMesh(4, 4).C,
	}
	for ci, c := range circuits {
		for _, g := range []string{"VDD", "GND"} {
			c.MarkGlobal(g)
		}
		for round := 0; round < 40; round++ {
			ops, names := randomBatch(rng, c, 1+rng.Intn(8), &serial)
			before := freeze(c)

			// A failing op at a random position: a removal of a device no
			// circuit has, or a pin a device lacks.
			bad := Op{Op: OpRemoveDevice, Name: "no-such-device"}
			if rng.Intn(2) == 0 {
				bad = Op{Op: OpRewirePin, Device: c.Devices[0].Name, Pin: 99, Net: c.Nets[0].Name}
			}
			at := rng.Intn(len(ops) + 1)
			failing := append(append(append([]Op(nil), ops[:at]...), bad), ops[at:]...)
			if _, err := Apply(c, 2, failing); err == nil {
				t.Fatalf("circuit %d round %d: a batch with a failing op applied", ci, round)
			}
			sameAsFrozen(t, fmt.Sprintf("circuit %d round %d, failed at op %d of %d", ci, round, at, len(failing)), c, before, names)

			// The batch without the failing op applies; its undo restores
			// the circuit; applied again, it stays (the next round's base).
			_, undo, err := ApplyUndo(c, 2, ops)
			if err != nil {
				t.Fatalf("circuit %d round %d: %v", ci, round, err)
			}
			undo()
			sameAsFrozen(t, fmt.Sprintf("circuit %d round %d, undone", ci, round), c, before, names)
			if _, err := Apply(c, 2, ops); err != nil {
				t.Fatalf("circuit %d round %d: re-apply: %v", ci, round, err)
			}
		}
	}
}

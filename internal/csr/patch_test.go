package csr

import (
	"fmt"
	"testing"

	"subgemini/internal/graph"
)

// editState tracks the pointer snapshot and per-op dirty marks an edit
// script accumulates, mirroring what internal/delta does for real edits.
type editState struct {
	c        *graph.Circuit
	oldDevs  []*graph.Device
	oldNets  []*graph.Net
	dirtyDev map[*graph.Device]bool
	dirtyNet map[*graph.Net]bool
}

func newEditState(c *graph.Circuit) *editState {
	return &editState{
		c:        c,
		oldDevs:  append([]*graph.Device(nil), c.Devices...),
		oldNets:  append([]*graph.Net(nil), c.Nets...),
		dirtyDev: map[*graph.Device]bool{},
		dirtyNet: map[*graph.Net]bool{},
	}
}

// finish computes the Remap and the new-index dirty sets from the pointer
// snapshot: a vertex still present keeps its (possibly shifted) index, a
// removed one maps to -1.  Dirty marks on removed vertices are dropped.
func (s *editState) finish() (Remap, []int32, []int32) {
	rm := Remap{
		Dev: make([]int32, len(s.oldDevs)),
		Net: make([]int32, len(s.oldNets)),
	}
	for i, d := range s.oldDevs {
		rm.Dev[i] = -1
		if d.Index < len(s.c.Devices) && s.c.Devices[d.Index] == d {
			rm.Dev[i] = int32(d.Index)
		}
	}
	for i, n := range s.oldNets {
		rm.Net[i] = -1
		if n.Index < len(s.c.Nets) && s.c.Nets[n.Index] == n {
			rm.Net[i] = int32(n.Index)
		}
	}
	var dd, dn []int32
	for d := range s.dirtyDev {
		if d.Index < len(s.c.Devices) && s.c.Devices[d.Index] == d {
			dd = append(dd, int32(d.Index))
		}
	}
	for n := range s.dirtyNet {
		if n.Index < len(s.c.Nets) && s.c.Nets[n.Index] == n {
			dn = append(dn, int32(n.Index))
		}
	}
	return rm, dd, dn
}

func sameGraph(t *testing.T, got, want *Graph, what string) {
	t.Helper()
	if got.NumDevs != want.NumDevs || got.NumNets != want.NumNets {
		t.Fatalf("%s: dims (%d,%d), want (%d,%d)", what, got.NumDevs, got.NumNets, want.NumDevs, want.NumNets)
	}
	if len(got.Start) != len(want.Start) || len(got.Adj) != len(want.Adj) || len(got.Mul) != len(want.Mul) {
		t.Fatalf("%s: array lengths differ", what)
	}
	for i := range want.Start {
		if got.Start[i] != want.Start[i] {
			t.Fatalf("%s: Start[%d] = %d, want %d", what, i, got.Start[i], want.Start[i])
		}
	}
	for i := range want.Adj {
		if got.Adj[i] != want.Adj[i] {
			t.Fatalf("%s: Adj[%d] = %d, want %d", what, i, got.Adj[i], want.Adj[i])
		}
		if got.Mul[i] != want.Mul[i] {
			t.Fatalf("%s: Mul[%d] = %#x, want %#x", what, i, got.Mul[i], want.Mul[i])
		}
	}
	if len(got.DevType) != len(want.DevType) {
		t.Fatalf("%s: DevType has %d entries, want %d", what, len(got.DevType), len(want.DevType))
	}
	for i := range want.DevType {
		if got.DevType[i] != want.DevType[i] {
			t.Fatalf("%s: DevType[%d] = %#x, want %#x", what, i, got.DevType[i], want.DevType[i])
		}
	}
}

// TestPatchIdentical applies a fixed edit script covering every op kind and
// checks the spliced view is bit-identical to a from-scratch build.
func TestPatchIdentical(t *testing.T) {
	c := chain(80)
	// The only device of its type, removed below.
	c.MustAddDevice("cap0", "cap", []graph.TermClass{graph.ClassDS, graph.ClassDS},
		[]*graph.Net{c.Nets[3], c.Nets[7]})
	old := New(c)
	s := newEditState(c)

	// Add a device on one fresh and two existing nets.
	fresh := c.AddNet("fresh0")
	d, err := c.AddDevice("mx0", "nmos", mosCls, []*graph.Net{c.Nets[4], fresh, c.Nets[9]})
	if err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	s.dirtyDev[d] = true
	for _, p := range d.Pins {
		s.dirtyNet[p.Net] = true
	}

	// Add a device of a type new to the circuit.
	rx, err := c.AddDevice("rx0", "res", []graph.TermClass{graph.ClassDS, graph.ClassDS},
		[]*graph.Net{c.Nets[5], c.Nets[6]})
	if err != nil {
		t.Fatalf("AddDevice: %v", err)
	}
	s.dirtyDev[rx] = true
	for _, p := range rx.Pins {
		s.dirtyNet[p.Net] = true
	}

	// Remove the last device of a type.
	for _, p := range c.DeviceByName("cap0").Pins {
		s.dirtyNet[p.Net] = true
	}
	if err := c.RemoveDevice("cap0"); err != nil {
		t.Fatalf("RemoveDevice: %v", err)
	}

	// Remove a device; its nets survive with spliced conns.
	victim := c.Devices[10]
	for _, p := range victim.Pins {
		s.dirtyNet[p.Net] = true
	}
	if err := c.RemoveDevice(victim.Name); err != nil {
		t.Fatalf("RemoveDevice: %v", err)
	}

	// Rewire a pin between two nets.
	rd := c.Devices[30]
	s.dirtyDev[rd] = true
	s.dirtyNet[rd.Pins[1].Net] = true
	s.dirtyNet[c.Nets[2]] = true
	if err := c.RewirePin(rd.Name, 1, c.Nets[2]); err != nil {
		t.Fatalf("RewirePin: %v", err)
	}

	// Rename touches no structure, removing a floating net shifts indices.
	if err := c.RenameNet("n5", "renamed5"); err != nil {
		t.Fatalf("RenameNet: %v", err)
	}
	float := c.AddNet("floating")
	_ = float
	if err := c.RemoveNet("floating"); err != nil {
		t.Fatalf("RemoveNet: %v", err)
	}

	if err := c.Validate(); err != nil {
		t.Fatalf("Validate after edits: %v", err)
	}
	rm, dd, dn := s.finish()
	got, rebuilt := Patch(old, c, rm, dd, dn)
	if rebuilt {
		t.Fatalf("Patch rebuilt despite a small edit (%d+%d dirty of %d)", len(dd), len(dn), c.NumDevices()+c.NumNets())
	}
	sameGraph(t, got, New(c), "patched")
}

// TestPatchRandomScript chains randomized edit rounds, patching from the
// previous patched view each time, and compares every round to New.
func TestPatchRandomScript(t *testing.T) {
	c := chain(120)
	cur := New(c)
	rnd := uint64(99)
	next := func(m int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int(rnd>>33) % m
	}
	serial := 0
	for round := 0; round < 20; round++ {
		s := newEditState(c)
		for op := 0; op < 3; op++ {
			switch next(3) {
			case 0:
				n1 := c.Nets[next(len(c.Nets))]
				n2 := c.AddNet(fmt.Sprintf("add%d", serial))
				n3 := c.Nets[next(len(c.Nets))]
				d, err := c.AddDevice(fmt.Sprintf("madd%d", serial), "nmos", mosCls, []*graph.Net{n1, n2, n3})
				serial++
				if err != nil {
					t.Fatalf("round %d: AddDevice: %v", round, err)
				}
				s.dirtyDev[d] = true
				for _, p := range d.Pins {
					s.dirtyNet[p.Net] = true
				}
			case 1:
				if len(c.Devices) < 10 {
					continue
				}
				v := c.Devices[next(len(c.Devices))]
				for _, p := range v.Pins {
					s.dirtyNet[p.Net] = true
				}
				if err := c.RemoveDevice(v.Name); err != nil {
					t.Fatalf("round %d: RemoveDevice: %v", round, err)
				}
			case 2:
				d := c.Devices[next(len(c.Devices))]
				pin := next(len(d.Pins))
				tgt := c.Nets[next(len(c.Nets))]
				s.dirtyDev[d] = true
				s.dirtyNet[d.Pins[pin].Net] = true
				s.dirtyNet[tgt] = true
				if err := c.RewirePin(d.Name, pin, tgt); err != nil {
					t.Fatalf("round %d: RewirePin: %v", round, err)
				}
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("round %d: Validate: %v", round, err)
		}
		rm, dd, dn := s.finish()
		got, _ := Patch(cur, c, rm, dd, dn)
		sameGraph(t, got, New(c), fmt.Sprintf("round %d", round))
		cur = got
	}
}

// TestPatchRebuildThreshold forces the degradation fallback and checks the
// rebuilt flag plus correctness of the full build.
func TestPatchRebuildThreshold(t *testing.T) {
	defer func(f float64) { RebuildFraction = f }(RebuildFraction)
	RebuildFraction = 0.0

	c := chain(40)
	old := New(c)
	s := newEditState(c)
	d := c.Devices[5]
	s.dirtyDev[d] = true
	s.dirtyNet[c.Nets[1]] = true
	s.dirtyNet[d.Pins[0].Net] = true
	if err := c.RewirePin(d.Name, 0, c.Nets[1]); err != nil {
		t.Fatalf("RewirePin: %v", err)
	}
	rm, dd, dn := s.finish()
	got, rebuilt := Patch(old, c, rm, dd, dn)
	if !rebuilt {
		t.Fatalf("Patch did not rebuild with RebuildFraction=0")
	}
	sameGraph(t, got, New(c), "rebuilt")

	// A nil previous view always rebuilds.
	if _, rb := Patch(nil, c, Remap{}, nil, nil); !rb {
		t.Fatalf("Patch(nil, ...) did not report rebuilt")
	}
}

// TestPatchRemaps covers the two shapes of vertex remap Patch
// distinguishes: one that moves no surviving vertex (an eco edit rewires a
// pin onto an appended net, then moves it back and removes that net), so
// clean rows are copied as they are, and one that shifts vertices (a device
// removed mid-circuit), so clean rows' neighbor ids are translated.
func TestPatchRemaps(t *testing.T) {
	type edit func(c *graph.Circuit, s *editState) error
	rewire := func(dev, pin int, net func(c *graph.Circuit) *graph.Net) edit {
		return func(c *graph.Circuit, s *editState) error {
			d, to := c.Devices[dev], net(c)
			s.dirtyDev[d], s.dirtyNet[d.Pins[pin].Net], s.dirtyNet[to] = true, true, true
			return c.RewirePin(d.Name, pin, to)
		}
	}
	var home *graph.Net // device 20's pin 1 net before the eco edit
	for _, tc := range []struct {
		name    string
		shifted bool
		edits   []edit
	}{
		{"identity", false, []edit{
			rewire(20, 1, func(c *graph.Circuit) *graph.Net {
				home = c.Devices[20].Pins[1].Net
				return c.AddNet("eco")
			}),
			func(c *graph.Circuit, s *editState) error {
				if err := rewire(20, 1, func(*graph.Circuit) *graph.Net { return home })(c, s); err != nil {
					return err
				}
				return c.RemoveNet("eco")
			},
		}},
		{"shifted", true, []edit{
			func(c *graph.Circuit, s *editState) error {
				victim := c.Devices[25]
				for _, p := range victim.Pins {
					s.dirtyNet[p.Net] = true
				}
				return c.RemoveDevice(victim.Name)
			},
		}},
	} {
		c := chain(60)
		view := New(c)
		for i, ed := range tc.edits {
			s := newEditState(c)
			if err := ed(c, s); err != nil {
				t.Fatalf("%s edit %d: %v", tc.name, i, err)
			}
			rm, dd, dn := s.finish()
			moves := false
			for ov, nv := range rm.Dev {
				moves = moves || (nv >= 0 && nv != int32(ov))
			}
			if moves != tc.shifted {
				t.Fatalf("%s edit %d: the remap moves vertices: %v", tc.name, i, moves)
			}
			got, rebuilt := Patch(view, c, rm, dd, dn)
			if rebuilt {
				t.Fatalf("%s edit %d: Patch rebuilt", tc.name, i)
			}
			sameGraph(t, got, New(c), fmt.Sprintf("%s edit %d", tc.name, i))
			view = got
		}
	}
}

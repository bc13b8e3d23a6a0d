package delta

import (
	"encoding/json"
	"reflect"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

func inv(t *testing.T) *graph.Circuit {
	t.Helper()
	c := gen.InverterChain(6).C
	for _, g := range []string{"VDD", "GND"} {
		c.MarkGlobal(g)
	}
	return c
}

func TestApplyBasicOps(t *testing.T) {
	c := inv(t)
	nd, nn := c.NumDevices(), c.NumNets()
	dev0 := c.Devices[0].Name
	ops := []Op{
		{Op: OpAddNet, Name: "scratch"},
		{Op: OpRewirePin, Device: dev0, Pin: 1, Net: "scratch"},
		{Op: OpAddDevice, Name: "extra", Type: "nmos", Classes: []int{1, 2, 2},
			Nets: []string{"scratch", "fresh", "GND"}},
	}
	st, err := Apply(c, 7, ops)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 7 || st.NewDevs != nd+1 || st.NewNets != nn+2 {
		t.Errorf("step dims: version=%d devs=%d nets=%d", st.Version, st.NewDevs, st.NewNets)
	}
	if st.OldDevs != nd || st.OldNets != nn {
		t.Errorf("step old dims: devs=%d nets=%d", st.OldDevs, st.OldNets)
	}
	// No removals: the remaps are the identity, left nil.
	if st.DevOld2New != nil || st.NetOld2New != nil {
		t.Errorf("remaps %v / %v, want nil", st.DevOld2New, st.NetOld2New)
	}
	wantTouched := []string{"fresh", "scratch"}
	if !reflect.DeepEqual(st.Touched, wantTouched) {
		t.Errorf("Touched = %v, want %v", st.Touched, wantTouched)
	}
	if c.DeviceByName("extra") == nil || c.NetByName("fresh") == nil {
		t.Error("ops not applied")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("edited circuit invalid: %v", err)
	}
}

func TestApplyRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Op
	}{
		{"rename global", Op{Op: OpRenameNet, Old: "VDD", New: "VCC"}},
		{"remove global", Op{Op: OpRemoveNet, Name: "VDD"}},
		{"remove connected net", Op{Op: OpRemoveNet, Name: "n1"}},
		{"wildcard device", Op{Op: OpAddDevice, Name: "w", Type: graph.WildcardType,
			Classes: []int{1}, Nets: []string{"n1"}}},
		{"duplicate net", Op{Op: OpAddNet, Name: "n1"}},
		{"unknown device", Op{Op: OpRemoveDevice, Name: "nope"}},
		{"unknown op", Op{Op: "frobnicate"}},
		{"bad pin", Op{Op: OpRewirePin, Device: "inv0_p", Pin: 99, Net: "n1"}},
	} {
		c := inv(t)
		if c.NetByName("n1") == nil {
			// Generator naming changed; pick any connected non-global net.
			t.Fatalf("fixture: no net n1 (nets: %v)", len(c.Nets))
		}
		if _, err := Apply(c, 1, []Op{tc.op}); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestRemoveDeviceTouchesFloatingNets(t *testing.T) {
	c := graph.New("t")
	a, b := c.AddNet("a"), c.AddNet("b")
	c.MustAddDevice("d1", "nmos", []graph.TermClass{1, 2}, []*graph.Net{a, b})
	c.MustAddDevice("d2", "nmos", []graph.TermClass{1, 2}, []*graph.Net{a, a})
	st, err := Apply(c, 1, []Op{{Op: OpRemoveDevice, Name: "d2"}})
	if err != nil {
		t.Fatal(err)
	}
	// d2's only net "a" stays (d1 uses it); no identity change.
	if len(st.Touched) != 0 {
		t.Errorf("Touched = %v, want none", st.Touched)
	}
	st, err = Apply(c, 2, []Op{{Op: OpRemoveDevice, Name: "d1"}})
	if err != nil {
		t.Fatal(err)
	}
	// Both nets float and are removed with d1.
	want := []string{"a", "b"}
	if !reflect.DeepEqual(st.Touched, want) {
		t.Errorf("Touched = %v, want %v", st.Touched, want)
	}
	if st.NewNets != 0 || st.NetOld2New[0] != -1 || st.NetOld2New[1] != -1 {
		t.Errorf("net remap = %v newNets=%d", st.NetOld2New, st.NewNets)
	}
}

// TestStepFeedsCSRPatch asserts a Step's remap and dirty lists are exactly
// what csr.Patch needs: the patched view must be bit-identical to a rebuild.
func TestStepFeedsCSRPatch(t *testing.T) {
	c := gen.NandMesh(4, 5).C
	old := csr.New(c)
	dev := c.Devices[3].Name
	ops := []Op{
		{Op: OpRewirePin, Device: dev, Pin: 0, Net: c.Nets[8].Name},
		{Op: OpRemoveDevice, Name: c.Devices[10].Name},
		{Op: OpAddDevice, Name: "xtra", Type: "nmos", Classes: []int{1, 2, 2},
			Nets: []string{c.Nets[1].Name, c.Nets[2].Name, "newnet"}},
	}
	st, err := Apply(c, 1, ops)
	if err != nil {
		t.Fatal(err)
	}
	patched, rebuilt := csr.Patch(old, c, csr.Remap{Dev: st.DevOld2New, Net: st.NetOld2New},
		st.DirtyDevs, st.DirtyNets)
	if rebuilt {
		t.Fatalf("patch degenerated to rebuild on a %d-vertex graph", old.Size())
	}
	fresh := csr.New(c)
	if !reflect.DeepEqual(patched.Start, fresh.Start) ||
		!reflect.DeepEqual(patched.Adj, fresh.Adj) {
		t.Error("patched CSR differs from rebuild")
	}
}

func TestComposeChainsRemapsAndDirt(t *testing.T) {
	c := gen.InverterChain(8).C
	s1, err := Apply(c, 1, []Op{{Op: OpRemoveDevice, Name: c.Devices[2].Name}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Apply(c, 2, []Op{{Op: OpRemoveDevice, Name: c.Devices[0].Name}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Compose([]*Step{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.DevOld2New) != len(s1.DevOld2New) {
		t.Fatalf("composed remap length %d", len(ds.DevOld2New))
	}
	// Both removed devices map to -1; survivors map to their final index.
	removed := 0
	for old, nv := range ds.DevOld2New {
		if nv < 0 {
			removed++
			continue
		}
		if c.Devices[nv].Index != int(nv) {
			t.Errorf("dev %d: stale index", old)
		}
	}
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	for _, v := range ds.DirtyDevs {
		if int(v) >= c.NumDevices() {
			t.Errorf("dirty dev %d out of range", v)
		}
	}
	for _, v := range ds.DirtyNets {
		if int(v) >= c.NumNets() {
			t.Errorf("dirty net %d out of range", v)
		}
	}
	if _, err := Compose([]*Step{s2, s1}); err == nil {
		t.Error("out-of-order compose accepted")
	}
	if _, err := Compose(nil); err == nil {
		t.Error("empty compose accepted")
	}
}

func TestOpJSONRoundTrip(t *testing.T) {
	in := []Op{
		{Op: OpAddDevice, Name: "m1", Type: "pmos", Classes: []int{1, 2, 2}, Nets: []string{"a", "b", "VDD"}},
		{Op: OpRenameNet, Old: "a", New: "a2"},
		{Op: OpRewirePin, Device: "m1", Pin: 2, Net: "GND"},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Op
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip: %+v vs %+v", in, out)
	}
}

func TestPatternKey(t *testing.T) {
	opts := core.Options{Globals: []string{"VDD", "GND"}}
	k1 := PatternKey(stdcell.NAND2.Pattern(), opts)
	k2 := PatternKey(stdcell.NAND2.Pattern(), opts)
	if k1 != k2 {
		t.Error("key not deterministic")
	}
	if PatternKey(stdcell.INV.Pattern(), opts) == k1 {
		t.Error("different cells share a key")
	}
	seeded := opts
	seeded.Seed = 9
	if PatternKey(stdcell.NAND2.Pattern(), seeded) == k1 {
		t.Error("seed not in key")
	}
	bound := opts
	bound.Bind = map[string]string{"A": "n17"}
	if PatternKey(stdcell.NAND2.Pattern(), bound) == k1 {
		t.Error("bind not in key")
	}
}

func TestResultCache(t *testing.T) {
	rc := NewResultCache(2)
	if _, _, ok := rc.Lookup("c", "k1", 7); ok {
		t.Error("hit on empty cache")
	}
	st := &core.IncrementalState{}
	rc.Store("c", "k1", 7, 3, st)
	rc.Store("c", "k1", 7, 4, st) // update in place
	if v, got, ok := rc.Lookup("c", "k1", 7); !ok || v != 4 || got != st {
		t.Errorf("lookup: v=%d ok=%v", v, ok)
	}
	// A capture of another install under the same name is a miss.
	if _, _, ok := rc.Lookup("c", "k1", 8); ok {
		t.Error("hit on another install's capture")
	}
	rc.Store("c", "k2", 7, 1, st)
	rc.Store("c2", "k1", 9, 1, st) // evicts the oldest ("c","k1")
	if rc.Len() != 2 {
		t.Errorf("len = %d, want 2", rc.Len())
	}
	if _, _, ok := rc.Lookup("c", "k1", 7); ok {
		t.Error("evicted entry still present")
	}
	rc.Store("c", "nil", 7, 1, nil)
	if _, _, ok := rc.Lookup("c", "nil", 7); ok {
		t.Error("nil state cached")
	}
	if n := rc.Invalidate("c"); n != 1 {
		t.Errorf("invalidate dropped %d, want 1", n)
	}
	hits, misses, inv := rc.Counters()
	if hits == 0 || misses == 0 || inv != 1 {
		t.Errorf("counters: %d/%d/%d", hits, misses, inv)
	}
}

// TestRemoveDeviceKeepsUnrelatedNets: remove_device drops only the nets the
// removal itself leaves floating.  A net an earlier batch added floats but
// is not the removed device's, so it survives and stays out of Touched;
// the removed device's own net, once nothing else holds it, still goes and
// is touched.  Both removals roll back exactly.
func TestRemoveDeviceKeepsUnrelatedNets(t *testing.T) {
	c := gen.InverterChain(4).C
	if _, err := Apply(c, 1, []Op{{Op: OpAddNet, Name: "spare"}}); err != nil {
		t.Fatal(err)
	}
	in := c.NetByName("in")
	if in == nil || len(in.Conns) != 2 || in.Conns[0].Dev != c.Devices[0] {
		t.Fatalf("fixture: net in should hold device 0 and one other device")
	}
	other := in.Conns[1].Dev.Name
	for i, tc := range []struct {
		dev     string
		touched []string
	}{
		{c.Devices[0].Name, nil}, // in still holds the other device
		{other, []string{"in"}},  // now in floats with the removal
	} {
		before := freeze(c)
		ops := []Op{{Op: OpRemoveDevice, Name: tc.dev}}
		_, undo, err := ApplyUndo(c, uint64(i+2), ops)
		if err != nil {
			t.Fatal(err)
		}
		undo()
		sameAsFrozen(t, "undone remove_device "+tc.dev, c, before, nil)
		st, err := Apply(c, uint64(i+2), ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(st.Touched, tc.touched) {
			t.Errorf("remove_device %s: Touched = %v, want %v", tc.dev, st.Touched, tc.touched)
		}
		if c.NetByName("spare") == nil {
			t.Fatalf("remove_device %s dropped the unrelated floating net spare", tc.dev)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if c.NetByName("in") != nil {
		t.Error("net in survived the removal of its last device")
	}
}

// TestNilRemapsMatchDense: a Step leaves a remap nil when its batch removed
// no vertex of that kind.  Patching with the nil remaps must give the view
// the dense remaps give (a fresh build, without a rebuild), and composing
// the steps must give the DirtySet composing their dense forms gives.
func TestNilRemapsMatchDense(t *testing.T) {
	c := gen.NandMesh(4, 5).C
	view := csr.New(c)
	dev := c.Devices[7]
	home := dev.Pins[0].Net.Name
	batches := []struct {
		ops            []Op
		devNil, netNil bool
	}{
		{[]Op{{Op: OpRewirePin, Device: dev.Name, Pin: 0, Net: "eco"}}, true, true},
		{[]Op{{Op: OpRewirePin, Device: dev.Name, Pin: 0, Net: home}, {Op: OpRemoveNet, Name: "eco"}}, true, false},
		{[]Op{{Op: OpAddDevice, Name: "xtra", Type: "nmos", Classes: []int{1, 2, 2},
			Nets: []string{c.Nets[1].Name, c.Nets[2].Name, "fresh"}}}, true, true},
		{[]Op{{Op: OpRemoveDevice, Name: c.Devices[3].Name}}, false, true},
		{[]Op{{Op: OpRemoveDevice, Name: "xtra"}}, false, false},
	}
	var steps, denseSteps []*Step
	for i, b := range batches {
		oldView := view
		st, err := Apply(c, uint64(i+1), b.ops)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if (st.DevOld2New == nil) != b.devNil || (st.NetOld2New == nil) != b.netNil {
			t.Errorf("batch %d: nil remaps dev=%v net=%v, want %v %v",
				i, st.DevOld2New == nil, st.NetOld2New == nil, b.devNil, b.netNil)
		}
		ds := *st
		ds.DevOld2New, ds.NetOld2New = dense(st.DevOld2New, st.OldDevs), dense(st.NetOld2New, st.OldNets)
		var rebuilt [2]bool
		view, rebuilt[0] = csr.Patch(oldView, c, csr.Remap{Dev: st.DevOld2New, Net: st.NetOld2New}, st.DirtyDevs, st.DirtyNets)
		want, rb := csr.Patch(oldView, c, csr.Remap{Dev: ds.DevOld2New, Net: ds.NetOld2New}, st.DirtyDevs, st.DirtyNets)
		rebuilt[1] = rb
		if rebuilt != [2]bool{} {
			t.Fatalf("batch %d: Patch rebuilt (nil remaps, dense remaps) = %v", i, rebuilt)
		}
		if !reflect.DeepEqual(view, want) || !reflect.DeepEqual(view, csr.New(c)) {
			t.Fatalf("batch %d: the view patched with nil remaps differs from the dense-remap patch or a fresh build", i)
		}
		steps, denseSteps = append(steps, st), append(denseSteps, &ds)
		for from := range steps {
			got, err := Compose(steps[from:])
			if err != nil {
				t.Fatal(err)
			}
			want, err := Compose(denseSteps[from:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Compose(steps %d..%d) = %+v, want the dense composition %+v", from, i, got, want)
			}
			if len(got.DevOld2New) != steps[from].OldDevs || len(got.NetOld2New) != steps[from].OldNets {
				t.Fatalf("Compose(steps %d..%d): remaps not dense", from, i)
			}
		}
	}
}

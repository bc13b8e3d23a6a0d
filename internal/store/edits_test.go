package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
)

// editOps is a benign single-op batch: move a device's pin 0 onto the
// named net (created if absent).  Always valid, always bumps the version.
func editOps(dev, net string) []delta.Op {
	return []delta.Op{{Op: delta.OpRewirePin, Device: dev, Pin: 0, Net: net}}
}

func TestApplyEditsVersionsAndIsolation(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}

	// A handle acquired before the edit keeps seeing the old circuit.
	h, err := st.Acquire("chip")
	if err != nil {
		t.Fatal(err)
	}
	before := h.Circuit()

	dev := before.Devices[0].Name
	info, err := st.ApplyEdits("chip", editOps(dev, "spare1"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Errorf("version = %d, want 2", info.Version)
	}
	if before.NetByName("spare1") != nil {
		t.Error("edit mutated the old entry's circuit")
	}
	h.Release()

	h2, err := st.Acquire("chip")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	after := h2.Circuit()
	if after == before {
		t.Error("edit did not install a fresh entry")
	}
	if after.NetByName("spare1") == nil {
		t.Error("edit missing from the new entry")
	}
	if got := after.Devices[0].Pins[0].Net.Name; got != "spare1" {
		t.Errorf("pin 0 on %q, want spare1", got)
	}
	// The patched CSR must describe the edited circuit.
	if h2.CSR().NumDevs != after.NumDevices() || h2.CSR().NumNets != after.NumNets() {
		t.Error("CSR view out of sync with edited circuit")
	}

	// Invalid batches leave the circuit and version untouched.
	if _, err := st.ApplyEdits("chip", []delta.Op{{Op: delta.OpRemoveDevice, Name: "nope"}}); err == nil {
		t.Fatal("invalid batch accepted")
	}
	if got, _ := st.Get("chip"); got.Version != 2 {
		t.Errorf("version after failed edit = %d, want 2", got.Version)
	}

	if _, err := st.ApplyEdits("ghost", editOps("x", "y")); err == nil {
		t.Error("edit of unknown circuit accepted")
	}
}

func TestStepsSince(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := parseMain(t, nandSrc, "chip")
	dev := c.Devices[0].Name
	if _, err := st.Put("chip", c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.ApplyEdits("chip", editOps(dev, "sp"+strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	steps, cur, ok := st.StepsSince("chip", 1)
	if !ok || cur != 4 || len(steps) != 3 {
		t.Fatalf("StepsSince(1): ok=%v cur=%d steps=%d", ok, cur, len(steps))
	}
	if steps[0].Version != 2 || steps[2].Version != 4 {
		t.Errorf("step versions %d..%d", steps[0].Version, steps[2].Version)
	}
	if _, cur, ok := st.StepsSince("chip", 4); !ok || cur != 4 {
		t.Errorf("StepsSince(current): ok=%v cur=%d", ok, cur)
	}
	if _, _, ok := st.StepsSince("chip", 9); ok {
		t.Error("StepsSince(future) ok")
	}
	if _, _, ok := st.StepsSince("ghost", 1); ok {
		t.Error("StepsSince(unknown) ok")
	}
	vl, err := st.Versions("chip")
	if err != nil || vl.Version != 4 || vl.SnapVersion != 1 || len(vl.Steps) != 3 {
		t.Errorf("Versions: %+v err=%v", vl, err)
	}
}

func TestEditLogRecoveryAndTornTail(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	c := parseMain(t, nandSrc, "chip")
	dev := c.Devices[0].Name
	if _, err := st.Put("chip", c); err != nil {
		t.Fatal(err)
	}
	for _, net := range []string{"spareA", "spareB"} {
		if _, err := st.ApplyEdits("chip", editOps(dev, net)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a kill: do NOT Close/Flush — recovery must come from the
	// snapshot plus the edit log alone.
	logPath := filepath.Join(dir, "circuits", "chip.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatalf("edit log missing: %v", err)
	}

	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	info, _ := st2.Get("chip")
	if info.Version != 3 {
		t.Fatalf("recovered version = %d, want 3", info.Version)
	}
	h, err := st2.Acquire("chip")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Circuit().Devices[0].Pins[0].Net.Name; got != "spareB" {
		t.Errorf("recovered pin net %q, want spareB", got)
	}
	h.Release()
	// Recovery also rebuilds the steps window.
	if steps, cur, ok := st2.StepsSince("chip", 1); !ok || cur != 3 || len(steps) != 2 {
		t.Errorf("recovered StepsSince: ok=%v cur=%d steps=%d", ok, cur, len(steps))
	}
	// Kill st2 too (no Close): Close would compact the log into the
	// snapshot, and the remaining cases need the uncompacted layout.

	// Tear the final record mid-line (kill during append): boot recovers
	// through the last complete record.
	if err := os.WriteFile(logPath, raw[:len(raw)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("boot with torn log tail: %v", err)
	}
	info, _ = st3.Get("chip")
	if info.Version != 2 {
		t.Errorf("torn-tail version = %d, want 2", info.Version)
	}
	st3.Close()

	// A corrupt record in the middle is not a torn tail: boot must refuse.
	lines := strings.SplitN(string(raw), "\n", 2)
	if err := os.WriteFile(logPath, []byte("garbage\n"+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir, Globals: rails}); err == nil {
		t.Error("boot accepted a corrupt mid-log record")
	}
}

func TestCompactionFoldsLog(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	c := parseMain(t, nandSrc, "chip")
	dev := c.Devices[0].Name
	if _, err := st.Put("chip", c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < compactEvery; i++ {
		net := "sp" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if _, err := st.ApplyEdits("chip", editOps(dev, net)); err != nil {
			t.Fatal(err)
		}
	}
	vl, err := st.Versions("chip")
	if err != nil {
		t.Fatal(err)
	}
	if vl.SnapVersion != vl.Version {
		t.Errorf("snapVersion=%d version=%d after compaction", vl.SnapVersion, vl.Version)
	}
	if _, err := os.Stat(filepath.Join(dir, "circuits", "chip.log")); !os.IsNotExist(err) {
		t.Errorf("edit log survives compaction: %v", err)
	}
	// Reboot sees the compacted state directly.
	st.Close()
	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if info, _ := st2.Get("chip"); info.Version != vl.Version {
		t.Errorf("rebooted version = %d, want %d", info.Version, vl.Version)
	}
}

// TestFlushSkipsCleanEntries is the regression test for the snapshot write
// path: flushing must not re-serialize circuits whose snapshot already
// covers their version.  The write-snapshot fault point (armed in benign
// delay mode with unlimited count) counts the serializations.
func TestFlushSkipsCleanEntries(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("clean", parseMain(t, nandSrc, "clean")); err != nil {
		t.Fatal(err)
	}
	edited := parseMain(t, nandSrc, "edited")
	dev := edited.Devices[0].Name
	if _, err := st.Put("edited", edited); err != nil {
		t.Fatal(err)
	}

	if _, err := faults.ArmString("store.write-snapshot=delay:1ns:inf"); err != nil {
		t.Fatal(err)
	}
	base := faults.Fired("store.write-snapshot")

	// Flush with nothing dirty: zero snapshot writes.
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := faults.Fired("store.write-snapshot") - base; n != 0 {
		t.Errorf("clean flush wrote %d snapshot(s), want 0", n)
	}

	// One edit dirties one entry: exactly one snapshot write, and a second
	// flush is clean again.
	if _, err := st.ApplyEdits("edited", editOps(dev, "spare")); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := faults.Fired("store.write-snapshot") - base; n != 1 {
		t.Errorf("dirty flush wrote %d snapshot(s), want 1", n)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := faults.Fired("store.write-snapshot") - base; n != 1 {
		t.Errorf("second flush wrote again (total %d)", n)
	}
	if s := st.Stats(); s.Edits != 1 {
		t.Errorf("Stats.Edits = %d, want 1", s.Edits)
	}
}

// TestAppendLogFaultFailsEdit: an edit whose log append fails, by error or
// by panic, fails as a whole.  With no reader the edit ran in place, so the
// entry must serve the pre-edit circuit again, object for object and with
// its old view, and accept the next edit.
func TestAppendLogFaultFailsEdit(t *testing.T) {
	defer faults.Reset()
	for _, mode := range []string{"error", "panic"} {
		st, err := Open(Config{Dir: t.TempDir(), Globals: rails})
		if err != nil {
			t.Fatal(err)
		}
		c := parseMain(t, nandSrc, "chip")
		dev := c.Devices[0].Name
		if _, err := st.Put("chip", c); err != nil {
			t.Fatal(err)
		}
		before := fullFingerprint(c)
		h, err := st.Acquire("chip")
		if err != nil {
			t.Fatal(err)
		}
		view := h.CSR()
		h.Release()

		if _, err := faults.ArmString("store.append-log=" + mode + ":1"); err != nil {
			t.Fatal(err)
		}
		ops := append(editOps(dev, "spare"), delta.Op{Op: delta.OpRemoveDevice, Name: "MN3"})
		func() {
			defer func() {
				if r := recover(); r != nil && mode != "panic" {
					panic(r)
				}
			}()
			if _, err := st.ApplyEdits("chip", ops); err == nil {
				t.Fatalf("%s: edit succeeded despite log append fault", mode)
			}
		}()
		if st.Healthy() != (mode == "panic") {
			t.Errorf("%s: Healthy() = %v after the failed log append", mode, st.Healthy())
		}
		if info, _ := st.Get("chip"); info.Version != 1 {
			t.Errorf("%s: version advanced to %d on failed edit", mode, info.Version)
		}
		h, err = st.Acquire("chip")
		if err != nil {
			t.Fatalf("%s: acquire after the failed edit: %v", mode, err)
		}
		if h.Circuit() != c || h.CSR() != view || fullFingerprint(h.Circuit()) != before {
			t.Errorf("%s: the failed edit changed the served circuit", mode)
		}
		if err := h.Circuit().Validate(); err != nil {
			t.Errorf("%s: %v", mode, err)
		}
		h.Release()

		// The next edit (fault disarmed) succeeds and restores health.
		if info, err := st.ApplyEdits("chip", ops); err != nil || info.Version != 2 {
			t.Fatalf("%s: next edit: version %d, %v", mode, info.Version, err)
		}
		if !st.Healthy() {
			t.Errorf("%s: store unhealthy after successful edit", mode)
		}
		st.Close()
	}
}

// fullFingerprint renders a circuit in order: each device with its pins'
// classes and nets, each net with its marks and connections, so two
// circuits print alike only when a fresh CSR build of either is the same.
func fullFingerprint(c *graph.Circuit) string {
	var b strings.Builder
	for _, d := range c.Devices {
		fmt.Fprintf(&b, "%d %s %s", d.Index, d.Name, d.Type)
		for _, p := range d.Pins {
			fmt.Fprintf(&b, " %d:%s", p.Class, p.Net.Name)
		}
		b.WriteByte('\n')
	}
	for _, n := range c.Nets {
		fmt.Fprintf(&b, "%d %s port=%v global=%v", n.Index, n.Name, n.Port, n.Global)
		for _, conn := range n.Conns {
			fmt.Fprintf(&b, " %s/%d", conn.Dev.Name, conn.Pin)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestEditInPlaceMatchesClone runs one edit script on two stores: on one
// nothing holds the circuit, so every batch edits in place; on the other a
// handle is held across every batch, so every batch edits a clone.  Both
// must reach the same circuits, views equal to csr.New and equal Steps,
// and each held handle must keep its pre-edit circuit.
func TestEditInPlaceMatchesClone(t *testing.T) {
	src := gen.RandomLogic(60, 8, 5).C
	stores := make([]*Store, 2)
	for i := range stores {
		st, err := Open(Config{Globals: rails})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Put("rand", src.Clone()); err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	inPlace, cloning := stores[0], stores[1]
	acquire := func(st *Store) *Handle {
		t.Helper()
		h, err := st.Acquire("rand")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	rng := rand.New(rand.NewSource(17))
	cur := src.Clone() // the script's copy of the circuit, to draw ops from
	for _, g := range rails {
		cur.MarkGlobal(g)
	}
	for i := 0; i < 60; i++ {
		d := cur.Devices[rng.Intn(cur.NumDevices())]
		n := cur.Nets[rng.Intn(cur.NumNets())]
		var ops []delta.Op
		switch i % 5 {
		case 0, 1:
			ops = editOps(d.Name, n.Name)
			ops[0].Pin = rng.Intn(len(d.Pins))
		case 2:
			ops = []delta.Op{{Op: delta.OpAddDevice, Name: fmt.Sprintf("Madd%d", i), Type: "nmos",
				Classes: []int{0, 1, 0, 2}, Nets: []string{n.Name, d.Pins[0].Net.Name, fmt.Sprintf("fresh%d", i), "GND"}}}
		case 3:
			ops = []delta.Op{{Op: delta.OpRemoveDevice, Name: d.Name}}
		case 4:
			ops = []delta.Op{{Op: delta.OpAddNet, Name: fmt.Sprintf("eco%d", i)},
				{Op: delta.OpRewirePin, Device: d.Name, Pin: 0, Net: fmt.Sprintf("eco%d", i)},
				{Op: delta.OpRewirePin, Device: d.Name, Pin: 0, Net: d.Pins[0].Net.Name},
				{Op: delta.OpRemoveNet, Name: fmt.Sprintf("eco%d", i)}}
		}
		if _, err := delta.Apply(cur, 0, ops); err != nil {
			t.Fatalf("batch %d %+v: %v", i, ops, err)
		}

		hp := acquire(inPlace)
		served := hp.Circuit()
		hp.Release()
		held := acquire(cloning)
		heldCkt, heldPrint := held.Circuit(), fullFingerprint(held.Circuit())
		for _, st := range stores {
			if _, err := st.ApplyEdits("rand", ops); err != nil {
				t.Fatalf("batch %d %+v: %v", i, ops, err)
			}
		}
		if fullFingerprint(heldCkt) != heldPrint || held.Version() != uint64(i+1) {
			t.Fatalf("batch %d: the held handle's circuit changed under it", i)
		}
		held.Release()

		a, b := acquire(inPlace), acquire(cloning)
		if a.Circuit() != served {
			t.Fatalf("batch %d: no handle was held, yet the edit did not run in place", i)
		}
		if b.Circuit() == heldCkt {
			t.Fatalf("batch %d: a handle was held, yet the edit ran in place", i)
		}
		if fa, fb := fullFingerprint(a.Circuit()), fullFingerprint(b.Circuit()); fa != fb || fa != fullFingerprint(cur) {
			t.Fatalf("batch %d: in-place and cloned edits disagree", i)
		}
		sameView(t, fmt.Sprintf("in place, batch %d", i), a.CSR(), csr.New(a.Circuit()))
		sameView(t, fmt.Sprintf("cloned, batch %d", i), b.CSR(), csr.New(b.Circuit()))
		a.Release()
		b.Release()
		sa, _, _ := inPlace.StepsSince("rand", uint64(i+1))
		sb, _, _ := cloning.StepsSince("rand", uint64(i+1))
		if len(sa) != 1 || !reflect.DeepEqual(sa, sb) {
			t.Fatalf("batch %d: in-place Steps %+v, cloned %+v", i, sa, sb)
		}
	}
}

// TestApplyEditsAllocatesUnderHalfAClone: an edit batch on rand4000 with
// nothing holding the circuit must allocate less than half of what one
// Clone of it does; an edit that cloned would allocate more than a Clone.
func TestApplyEditsAllocatesUnderHalfAClone(t *testing.T) {
	if testing.Short() {
		t.Skip("rand4000 in -short mode")
	}
	c := rand4000(t)
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	clone := allocated(func() { c.Clone() })

	st, err := Open(Config{Dir: t.TempDir(), Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	dev := c.Devices[len(c.Devices)/2]
	apply := editOps(dev.Name, "eco")
	revert := append(editOps(dev.Name, dev.Pins[0].Net.Name), delta.Op{Op: delta.OpRemoveNet, Name: "eco"})
	if _, err := st.Put("rand4000", c); err != nil {
		t.Fatal(err)
	}
	const batches = 8
	edits := allocated(func() {
		for i := 0; i < batches; i++ {
			ops := apply
			if i%2 == 1 {
				ops = revert
			}
			if _, err := st.ApplyEdits("rand4000", ops); err != nil {
				t.Fatal(err)
			}
		}
	})
	if per := edits / batches; per >= clone/2 {
		t.Errorf("ApplyEdits allocates %d bytes a batch, one Clone %d: want under half", per, clone)
	}
}

// TestConcurrentEditsAndMatches races PATCH-style edits against in-flight
// matches; run under -race, it pins the snapshot-isolation contract (a
// match sees one consistent circuit for its whole run).
func TestConcurrentEditsAndMatches(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := gen.NandMesh(5, 6)
	dev := d.C.Devices[0].Name
	if _, err := st.Put("mesh", d.C); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := st.Acquire("mesh")
				if err != nil {
					t.Error(err)
					return
				}
				if n := match(t, h, "NAND2"); n == 0 {
					t.Error("match found nothing")
				}
				h.Release()
			}
		}()
	}
	for i := 0; i < 25; i++ {
		net := "cc" + string(rune('a'+i%26))
		if _, err := st.ApplyEdits("mesh", editOps(dev, net)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if info, _ := st.Get("mesh"); info.Version != 26 {
		t.Errorf("final version = %d, want 26", info.Version)
	}
}

// sameView fails t unless got is element-wise identical to want.
func sameView(t *testing.T, when string, got, want *csr.Graph) {
	t.Helper()
	if got.NumDevs != want.NumDevs || got.NumNets != want.NumNets {
		t.Fatalf("%s: view %d/%d vertices, fresh build %d/%d", when, got.NumDevs, got.NumNets, want.NumDevs, want.NumNets)
	}
	if i := firstDiff(got.Start, want.Start); i >= 0 {
		t.Fatalf("%s: patched view differs from csr.New at Start[%d]", when, i)
	}
	if i := firstDiff(got.Adj, want.Adj); i >= 0 {
		t.Fatalf("%s: patched view differs from csr.New at Adj[%d]", when, i)
	}
	if i := firstDiff(got.Mul, want.Mul); i >= 0 {
		t.Fatalf("%s: patched view differs from csr.New at Mul[%d]", when, i)
	}
	if i := firstDiff(got.DevType, want.DevType); i >= 0 {
		t.Fatalf("%s: patched view differs from csr.New at DevType[%d]", when, i)
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestEditedViewMatchesFreshBuild: after every edit batch the entry's
// patched CSR view is bit-identical to csr.New of its circuit, the
// contract csr.Patch documents.  Regression: Clone used to rebuild each
// Net.Conns in device order, but RewirePin appends, so from the second
// edit on a rewired net's row spliced from the old view no longer matched
// the cloned circuit.
func TestEditedViewMatchesFreshBuild(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := gen.RandomLogic(50, 8, 3).C
	dev0 := c.Devices[0]
	var target *graph.Net
	for _, n := range c.Nets {
		if n != dev0.Pins[0].Net && !n.Global && n.Conns[0].Dev.Index > 0 {
			target = n
			break
		}
	}
	dev7 := c.Devices[7].Name
	if _, err := st.Put("rand", c); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		h, err := st.Acquire("rand")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Release()
		sameView(t, when, h.CSR(), csr.New(h.Circuit()))
	}
	if _, err := st.ApplyEdits("rand", editOps(dev0.Name, target.Name)); err != nil {
		t.Fatal(err)
	}
	check("after the rewire")
	if _, err := st.ApplyEdits("rand", editOps(dev7, "spare")); err != nil {
		t.Fatal(err)
	}
	check("after a second edit")

	// A device of a type new to the circuit, then the removal of the last
	// (only) device of that type.
	addRes := []delta.Op{{Op: delta.OpAddDevice, Name: "Rnew", Type: "res",
		Classes: []int{0, 0}, Nets: []string{target.Name, "spare"}}}
	if _, err := st.ApplyEdits("rand", addRes); err != nil {
		t.Fatal(err)
	}
	check("after adding a device of a new type")
	if _, err := st.ApplyEdits("rand", []delta.Op{{Op: delta.OpRemoveDevice, Name: "Rnew"}}); err != nil {
		t.Fatal(err)
	}
	check("after removing the last device of a type")

	// A longer script mixing every op kind.
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		h, err := st.Acquire("rand")
		if err != nil {
			t.Fatal(err)
		}
		cur := h.Circuit()
		d := cur.Devices[rng.Intn(cur.NumDevices())]
		n := cur.Nets[rng.Intn(cur.NumNets())]
		h.Release()
		var ops []delta.Op
		switch i % 4 {
		case 0, 1:
			ops = editOps(d.Name, n.Name)
			ops[0].Pin = rng.Intn(len(d.Pins))
		case 2:
			ops = []delta.Op{{Op: delta.OpAddDevice, Name: fmt.Sprintf("Madd%d", i), Type: "nmos",
				Classes: []int{0, 1, 0, 2}, Nets: []string{n.Name, d.Pins[0].Net.Name, fmt.Sprintf("fresh%d", i), "GND"}}}
		case 3:
			ops = []delta.Op{{Op: delta.OpRemoveDevice, Name: d.Name}}
		}
		if _, err := st.ApplyEdits("rand", ops); err != nil {
			t.Fatalf("batch %d %+v: %v", i, ops, err)
		}
		check(fmt.Sprintf("after scripted batch %d", i))
	}
}

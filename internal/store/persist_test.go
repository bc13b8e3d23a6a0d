package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

const invSubckt = `
.GLOBAL VDD GND
.SUBCKT MYINV A Y
MP1 Y A VDD pmos
MN1 Y A GND nmos
.ENDS
`

// TestSnapshotRoundTrip: Put two circuits and a pattern, reopen the store
// on the same directory, and verify everything reloads — shapes, globals,
// display names, and matchability.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	a := gen.RippleAdder(4)
	if _, err := st.Put("adder", a.C); err != nil {
		t.Fatal(err)
	}
	chip := parseMain(t, nandSrc, "chip_v2")
	chip.MarkGlobal("y") // a mark made after parse; must survive via the manifest
	if _, err := st.Put("chip", chip); err != nil {
		t.Fatal(err)
	}
	f, err := netlist.ParseString(invSubckt, "lib")
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := f.Pattern("MYINV")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SavePattern("MYINV", tpl); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	infos := st2.List()
	if len(infos) != 2 {
		t.Fatalf("reloaded %d circuits, want 2: %+v", len(infos), infos)
	}
	ci, ok := st2.Get("chip")
	if !ok || ci.Display != "chip_v2" || ci.Devices != 6 {
		t.Errorf("chip info after reload = %+v (ok=%v)", ci, ok)
	}
	wantGlobals := map[string]bool{"VDD": true, "GND": true, "y": true}
	for _, g := range ci.Globals {
		delete(wantGlobals, g)
	}
	if len(wantGlobals) != 0 {
		t.Errorf("chip globals missing after reload: %v (have %v)", wantGlobals, ci.Globals)
	}

	h, err := st2.Acquire("adder")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := match(t, h, "FA"), a.Expected(stdcell.FA); got != want {
		t.Errorf("reloaded adder: FA matches = %d, want %d", got, want)
	}
	h.Release()

	pats := st2.Patterns()
	if pats["MYINV"] == nil || pats["MYINV"].NumDevices() != 2 {
		t.Errorf("pattern did not survive restart: %v", pats)
	}
}

// TestGateLevelSnapshotRoundTrip: a circuit with non-primitive device
// types (the shape extraction produces) cannot round-trip through the
// netlist writer, so it snapshots as graph JSON — and must reload with
// its typed devices intact.  Replacing it with a transistor-level circuit
// switches the snapshot back to .sp without leaving the .json behind.
func TestGateLevelSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New("gates")
	nets := []*graph.Net{g.AddNet("a"), g.AddNet("b"), g.AddNet("y")}
	if _, err := g.AddDevice("u1", "NAND2", []graph.TermClass{0, 1, 2}, nets); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("gates", g); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, circuitsDir, "gates.json")); err != nil {
		t.Fatalf("gate-level circuit did not snapshot as JSON: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	h, err := st2.Acquire("gates")
	if err != nil {
		t.Fatal(err)
	}
	if h.Circuit().NumDevices() != 1 || h.Circuit().Devices[0].Type != "NAND2" {
		t.Errorf("reloaded gate circuit = %d devices, type %q; want one NAND2",
			h.Circuit().NumDevices(), h.Circuit().Devices[0].Type)
	}
	h.Release()

	// Replacing with a transistor-level circuit switches formats cleanly.
	if _, err := st2.Put("gates", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, circuitsDir, "gates.sp")); err != nil {
		t.Errorf("replacement did not snapshot as netlist: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, circuitsDir, "gates.json")); !os.IsNotExist(err) {
		t.Errorf("stale JSON snapshot survived the format switch: %v", err)
	}
}

// TestDeleteRemovesSnapshot: a deleted circuit does not reappear on reboot
// and its snapshot file is gone.
func TestDeleteRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, circuitsDir, "chip.sp")
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	if err := st.Delete("chip"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("snapshot still on disk after delete: %v", err)
	}
	st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 0 {
		t.Errorf("deleted circuit reappeared after reboot: %+v", st2.List())
	}
}

// TestManifestCorruption: a mangled manifest is a clear boot error, not a
// silent empty store.
func TestManifestCorruption(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Config{Dir: dir})
	if err == nil {
		t.Fatal("corrupt manifest booted without error")
	}
	if !strings.Contains(err.Error(), "manifest") || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corruption error not descriptive: %v", err)
	}

	// A missing snapshot referenced by a healthy manifest is equally fatal.
	st, err = Open(Config{Dir: dir2(t), Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(st.dir, circuitsDir, "chip.sp")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: st.dir}); err == nil {
		t.Error("missing snapshot booted without error")
	}
}

func dir2(t *testing.T) string {
	t.Helper()
	return t.TempDir()
}

// TestUnsupportedManifestVersion guards the schema gate.
func TestUnsupportedManifestVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future manifest version accepted: %v", err)
	}
}

const hierSrc = `
.GLOBAL VDD GND
.SUBCKT INV A Y
MP1 Y A VDD pmos
MN1 Y A GND nmos
.ENDS
X1 a b INV
X2 b c INV
.END
`

// TestHierarchicalSnapshotReplaysEdits: a flattened hierarchy names its
// devices X1/MP1, which the netlist writer would rename MX1/MP1, so the
// edit log's rewire of X1/MP1 could not replay onto a .sp snapshot and
// boot failed.  Such a circuit snapshots as JSON and reboots (without
// Close, so recovery runs snapshot plus log) to the edited state.
func TestHierarchicalSnapshotReplaysEdits(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, hierSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ApplyEdits("chip", editOps("X1/MP1", "spare")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, circuitsDir, "chip.json")); err != nil {
		t.Errorf("hierarchical circuit did not snapshot as JSON: %v", err)
	}

	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reopen without Close: %v", err)
	}
	defer st2.Close()
	h, err := st2.Acquire("chip")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Version() != 2 {
		t.Errorf("recovered version %d, want 2", h.Version())
	}
	d := h.Circuit().DeviceByName("X1/MP1")
	if d == nil || d.Pins[0].Net.Name != "spare" {
		t.Fatalf("recovered X1/MP1 = %+v, want pin 0 on spare", d)
	}
}

// TestEditedDeviceSnapshotRoundTrips: an edit can add a device the netlist
// reader would rebuild differently (here a two-pin nmos, which no MOS card
// can express), so the Close-time compaction of that circuit must write
// JSON, drop the stale .sp, and reboot to the same device.
func TestEditedDeviceSnapshotRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	add := []delta.Op{{Op: delta.OpAddDevice, Name: "q1", Type: "nmos", Classes: []int{0, 1}, Nets: []string{"y", "z"}}}
	if _, err := st.ApplyEdits("chip", add); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, circuitsDir, "chip.sp")); !os.IsNotExist(err) {
		t.Errorf("stale .sp snapshot survived the switch to JSON: %v", err)
	}

	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	h, err := st2.Acquire("chip")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	q := h.Circuit().DeviceByName("q1")
	if q == nil || q.Type != "nmos" || len(q.Pins) != 2 || q.Pins[1].Class != 1 {
		t.Fatalf("reloaded q1 = %+v, want a two-pin nmos", q)
	}
	if h.Version() != 2 {
		t.Errorf("reloaded version %d, want 2", h.Version())
	}
}

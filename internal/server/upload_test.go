package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"subgemini/internal/graph"
	"subgemini/internal/netlist"
)

// hierNetlist is a hierarchical upload: two inverters instantiated from
// one .SUBCKT beside a flat device.
const hierNetlist = `* two inverters and a pull-down
.GLOBAL VDD GND
.SUBCKT INV A Y
MP1 Y A VDD pmos
MN1 Y A GND nmos
.ENDS
X1 a b INV
X2 b c INV
MN9 c a GND nmos
.END
`

// clkNetlist declares a global of its own, CLK, beside the daemon's rails.
const clkNetlist = `.GLOBAL VDD GND CLK
MP1 q CLK VDD pmos
MN1 q d GND nmos
R1 q out
C1 out GND
.END
`

// circuitDump renders everything of a circuit a match can see: its name,
// its devices in order with type and each pin's class and net, and its
// nets in order with their Port and Global marks.
func circuitDump(c *graph.Circuit) string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s\n", c.Name)
	for i, d := range c.Devices {
		fmt.Fprintf(&b, "dev %d %s %s", i, d.Name, d.Type)
		for _, p := range d.Pins {
			fmt.Fprintf(&b, " %d:%s", p.Class, p.Net.Name)
		}
		b.WriteByte('\n')
	}
	for i, n := range c.Nets {
		fmt.Fprintf(&b, "net %d %s port=%v global=%v conns=%d\n", i, n.Name, n.Port, n.Global, len(n.Conns))
	}
	return b.String()
}

func storedDump(t *testing.T, s *Server, key string) string {
	t.Helper()
	h, err := s.store.Acquire(key)
	if err != nil {
		t.Fatalf("acquire %s: %v", key, err)
	}
	defer h.Release()
	return circuitDump(h.Circuit())
}

// circuitFiles lists the files under a data directory's circuits/.
func circuitFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(filepath.Join(dir, "circuits"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestUploadsReloadIdentically: an upload's snapshot is its body, byte for
// byte, and a daemon rebooted over the data directory serves exactly the
// circuit the first one served, device and net order included, for a
// flat, a hierarchical, a .GLOBAL-declaring and a display-named upload and
// for the legacy single-circuit endpoint.
func TestUploadsReloadIdentically(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Globals: rails, DataDir: dir}
	uploads := []struct{ method, path, key, body string }{
		{"PUT", "/v1/circuits/flat", "flat", nandNetlist},
		{"PUT", "/v1/circuits/hier", "hier", hierNetlist},
		{"PUT", "/v1/circuits/clk", "clk", clkNetlist},
		{"PUT", "/v1/circuits/named?name=chip_v2", "named", invPairNetlist},
		{"POST", "/v1/circuit?name=legacy", DefaultCircuit, hierNetlist},
	}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, u := range uploads {
		if rec := do(t, s1, u.method, u.path, u.body); rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", u.method, u.path, rec.Code, rec.Body.String())
		}
		want[u.key] = storedDump(t, s1, u.key)
		raw, err := os.ReadFile(filepath.Join(dir, "circuits", u.key+".sp"))
		if err != nil || string(raw) != u.body {
			t.Errorf("%s: snapshot is not the upload's body (%v):\n%s", u.key, err, raw)
		}
	}
	if !strings.Contains(want["hier"], "X1/MP1") || !strings.Contains(want["clk"], "CLK port=false global=true") ||
		!strings.Contains(want["named"], "circuit chip_v2") || !strings.Contains(want[DefaultCircuit], "circuit legacy") {
		t.Fatalf("fixtures did not upload as intended:\n%s%s%s%s", want["hier"], want["clk"], want["named"], want[DefaultCircuit])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	for _, f := range circuitFiles(t, dir) {
		if strings.HasSuffix(f, ".json") {
			t.Errorf("an upload snapshotted as graph JSON: %s", f)
		}
	}

	s2 := mustNew(t, cfg)
	for _, u := range uploads {
		if got := storedDump(t, s2, u.key); got != want[u.key] {
			t.Errorf("%s after reboot:\n%s\nwant the circuit served before it:\n%s", u.key, got, want[u.key])
		}
	}
}

// TestFailedUploadWritesNoSnapshot: an upload that fails to parse or to
// flatten leaves no file under circuits/, not even a temp file, and a
// failed replacement leaves the stored circuit and its snapshot as they
// were.
func TestFailedUploadWritesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Globals: rails, DataDir: dir})
	bad := []string{
		".SUBCKT INV A Y\nMP1 Y A VDD pmos\n", // parse: .SUBCKT without .ENDS
		"MP1 y a VDD pmos\nX1 a b MISSING\n",  // flatten: unknown subcircuit
		"* only a comment\n",                  // no top-level cards
	}
	for _, body := range bad {
		if rec := do(t, s, "PUT", "/v1/circuits/chip", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("PUT %q: status %d, want 400: %s", body, rec.Code, rec.Body.String())
		}
		if files := circuitFiles(t, dir); len(files) != 0 {
			t.Fatalf("PUT %q failed but left %v under circuits/", body, files)
		}
	}
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("PUT chip: status %d: %s", rec.Code, rec.Body.String())
	}
	before := storedDump(t, s, "chip")
	for _, body := range bad {
		if rec := do(t, s, "PUT", "/v1/circuits/chip", body); rec.Code != http.StatusBadRequest {
			t.Fatalf("replacing PUT %q: status %d, want 400", body, rec.Code)
		}
	}
	if files := circuitFiles(t, dir); len(files) != 1 || files[0] != "chip.sp" {
		t.Errorf("failed replacements left circuits/ holding %v, want [chip.sp]", files)
	}
	if got := storedDump(t, s, "chip"); got != before {
		t.Errorf("failed replacements changed the stored circuit:\n%s\nwant:\n%s", got, before)
	}
}

// TestHierarchyPastDeviceBoundRejected sends a netlist of 40 nested
// .SUBCKTs, each instantiating the one before twice (2^40 devices in
// under 2 KB), to every path that flattens request text: a circuit upload,
// the legacy upload, an inline match pattern, a sweep library and an
// extract job's patterns.  Each answers 400 with the flatten's error,
// which names netlist.MaxDevices, instead of running out of memory.  The
// subcircuits are named so that the deepest sorts first, as a library
// upload flattens them in name order.
func TestHierarchyPastDeviceBoundRejected(t *testing.T) {
	var b strings.Builder
	name := func(level int) string { return fmt.Sprintf("D%03d", 999-level) }
	fmt.Fprintf(&b, ".SUBCKT %s a b\nR1 a b\n.ENDS\n", name(0))
	for i := 1; i <= 40; i++ {
		fmt.Fprintf(&b, ".SUBCKT %s a b\nX1 a b %s\nX2 a b %s\n.ENDS\n", name(i), name(i-1), name(i-1))
	}
	fmt.Fprintf(&b, "X0 a b %s\n.END\n", name(40))
	chain := b.String()

	s, _ := newAdderServer(t, nil)
	limit := fmt.Sprint(netlist.MaxDevices)
	for _, tc := range []struct {
		what, method, path string
		body               any
	}{
		{"upload", "PUT", "/v1/circuits/chain", chain},
		{"legacy upload", "POST", "/v1/circuit?name=chain", chain},
		{"inline pattern", "POST", "/v1/match", map[string]any{"netlist": chain, "subckt": name(40)}},
		{"library", "PUT", "/v1/libraries/chain", map[string]any{"netlist": chain}},
		{"extract job", "POST", "/v1/jobs", map[string]any{"kind": "extract", "extract": map[string]any{"netlist": chain}}},
	} {
		rec := do(t, s, tc.method, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), limit) {
			t.Errorf("%s: status %d, body %s; want 400 naming the limit %s", tc.what, rec.Code, rec.Body.String(), limit)
		}
	}
}

// TestLibraryPastDeviceBudgetRejected: a library upload and an extract
// job flatten every .SUBCKT of their netlist under one device budget.  In
// a 22-level doubling chain each level passes netlist.MaxDevices alone,
// and together they would build about 8.4 million devices; both answer 400
// naming the bound before they build any level.
func TestLibraryPastDeviceBudgetRejected(t *testing.T) {
	var b strings.Builder
	b.WriteString(".SUBCKT L0 a b\nR1 a b\n.ENDS\n")
	for i := 1; i <= 22; i++ {
		fmt.Fprintf(&b, ".SUBCKT L%d a b\nX1 a b L%d\nX2 a b L%d\n.ENDS\n", i, i-1, i-1)
	}
	chain := b.String()

	s, _ := newAdderServer(t, nil)
	limit := fmt.Sprint(netlist.MaxDevices)
	for _, tc := range []struct {
		what, method, path string
		body               any
	}{
		{"library", "PUT", "/v1/libraries/chain", map[string]any{"netlist": chain}},
		{"extract job", "POST", "/v1/jobs", map[string]any{"kind": "extract", "extract": map[string]any{"netlist": chain}}},
	} {
		rec := do(t, s, tc.method, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), limit) {
			t.Errorf("%s: status %d, body %s; want 400 naming the limit %s", tc.what, rec.Code, rec.Body.String(), limit)
		}
	}
}

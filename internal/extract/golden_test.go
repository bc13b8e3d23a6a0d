package extract

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

var update = flag.Bool("update", false, "rewrite the golden netlists under testdata/")

// declaredLib is a user pattern library that declares the rails itself.
const declaredLib = `
.GLOBAL VDD GND
.SUBCKT DINV A Y
MP Y A VDD pmos
MN Y A GND nmos
.ENDS
.SUBCKT DNAND2 A B Y
MP1 Y A VDD pmos
MP2 Y B VDD pmos
MN1 Y A n1 nmos
MN2 n1 B GND nmos
.ENDS
`

// TestExtractedNetlistGolden pins extraction output byte for byte.  Cells
// and One run with the rails as Options.Globals, and Specs with a library
// that declares them, on a circuit parsed from source without a .GLOBAL
// card; the netlist written afterwards must equal the golden file, its
// .GLOBAL VDD GND line included: extraction marks the globals it matched
// under on the circuit it rewrites.  go test -update rewrites the files.
func TestExtractedNetlistGolden(t *testing.T) {
	var src strings.Builder
	if err := netlist.WriteCircuit(&src, gen.RandomLogic(24, 4, 3).C); err != nil {
		t.Fatal(err)
	}
	lib, err := netlist.ParseString(declaredLib, "lib.sp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		golden string
		run    func(c *graph.Circuit) error
	}{
		{"rand24_cells.sp", func(c *graph.Circuit) error {
			_, err := Cells(c, stdcell.All(), Options{Globals: rails})
			return err
		}},
		{"rand24_one_inv.sp", func(c *graph.Circuit) error {
			_, err := One(c, stdcell.INV, Options{Globals: rails})
			return err
		}},
		{"rand24_declared.sp", func(c *graph.Circuit) error {
			specs, err := SpecsFromNetlist(lib)
			if err == nil {
				_, err = Specs(c, specs, Options{})
			}
			return err
		}},
	} {
		f, err := netlist.ParseString(src.String(), "rand24.sp")
		if err != nil {
			t.Fatal(err)
		}
		c, err := f.MainCircuit("rand24")
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Globals()) != 0 {
			t.Fatal("the source declares globals; the test needs a circuit without them")
		}
		if err := tc.run(c); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		var got strings.Builder
		if err := netlist.WriteCircuit(&got, c); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("%s: extracted netlist differs from the golden file:\n%s", tc.golden, got.String())
		}
		if !strings.Contains(got.String(), "\n.GLOBAL VDD GND\n") {
			t.Errorf("%s: extracted netlist does not declare the rails:\n%s", tc.golden, got.String())
		}
	}
}

// Tests of the public facade: every re-exported entry point must work as
// documented in the package comment, because this is the only surface a
// downstream user sees.
package subgemini_test

import (
	"strings"
	"testing"

	"subgemini"
)

const facadeSrc = `
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
MP3 z y VDD pmos
MN3 z y GND nmos
.END
`

func parseMain(t *testing.T) *subgemini.Circuit {
	t.Helper()
	f, err := subgemini.ParseNetlist(facadeSrc, "facade.sp")
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.MainCircuit("facade")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFacadeQuickstartFlow(t *testing.T) {
	c := parseMain(t)
	res, err := subgemini.Find(c, subgemini.Cell("NAND2").Pattern(),
		subgemini.Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d NAND2s, want 1", len(res.Instances))
	}
	devs := res.Instances[0].Devices()
	if len(devs) != 4 {
		t.Fatalf("instance has %d devices, want 4", len(devs))
	}
}

// TestFacadeTrace traces one run with the facade's NewTrace and renders it
// with RenderTrace: the tables name the run, its passes and candidates.
func TestFacadeTrace(t *testing.T) {
	tr := subgemini.NewTrace("facade")
	res, err := subgemini.Find(parseMain(t), subgemini.Cell("NAND2").Pattern(),
		subgemini.Options{Globals: []string{"VDD", "GND"}, Observe: tr})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	subgemini.RenderTrace(&b, tr.Timeline().JSON())
	out := b.String()
	for _, want := range []string{
		"run: pattern NAND2 in circuit facade (6 devices, 7 nets)",
		"Phase I relabeling:",
		"phase1: key vertex",
		"Phase II candidates:",
		"MATCH",
		"run end: 1 instance(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace rendering missing %q:\n%s", want, out)
		}
	}
	if len(res.Instances) != 1 {
		t.Errorf("traced run found %d NAND2s, want 1", len(res.Instances))
	}
}

func TestFacadeCellLibrary(t *testing.T) {
	if subgemini.Cell("NAND2") == nil || subgemini.Cell("DFF") == nil {
		t.Fatal("library cells missing")
	}
	if subgemini.Cell("NOPE") != nil {
		t.Error("unknown cell returned")
	}
	if got := len(subgemini.Cells()); got < 15 {
		t.Errorf("library has %d cells, want >= 15", got)
	}
}

func TestFacadeNaive(t *testing.T) {
	c := parseMain(t)
	insts, err := subgemini.FindNaive(c, subgemini.Cell("INV").Pattern(), []string{"VDD", "GND"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 {
		t.Errorf("naive found %d INVs, want 1", len(insts))
	}
}

func TestFacadeCompare(t *testing.T) {
	a, b := parseMain(t), parseMain(t)
	res, err := subgemini.Compare(a, b, subgemini.CompareOptions{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Isomorphic {
		t.Errorf("identical circuits not isomorphic: %s", res.Reason)
	}
}

func TestFacadeExtractAndWrite(t *testing.T) {
	c := parseMain(t)
	counts, err := subgemini.ExtractCells(c,
		[]*subgemini.CellDef{subgemini.Cell("NAND2"), subgemini.Cell("INV")},
		subgemini.ExtractOptions{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range counts {
		total += e.Count
	}
	if total != 2 {
		t.Fatalf("extracted %d cells, want 2", total)
	}
	var out strings.Builder
	if err := subgemini.WriteNetlist(&out, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "NAND2") || !strings.Contains(out.String(), "INV") {
		t.Errorf("gate netlist missing cells:\n%s", out.String())
	}
}

func TestFacadeRuleCheck(t *testing.T) {
	c := subgemini.New("bad")
	vdd := c.AddNet("VDD")
	x, en := c.AddNet("x"), c.AddNet("en")
	classes := []subgemini.TermClass{subgemini.ClassDS, subgemini.ClassGate, subgemini.ClassDS}
	if _, err := c.AddDevice("m1", "nmos", classes, []*subgemini.Net{vdd, en, x}); err != nil {
		t.Fatal(err)
	}
	vios, err := subgemini.CheckRules(c, subgemini.StandardRules(), []string{"VDD", "GND"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vios) != 1 || vios[0].Rule.Name != "nmos-pullup" {
		t.Errorf("violations = %v, want one nmos-pullup", vios)
	}
}

func TestFacadeMatcherReuse(t *testing.T) {
	c := parseMain(t)
	m, err := subgemini.NewMatcher(c, subgemini.Options{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cell string
		want int
	}{{"NAND2", 1}, {"INV", 1}, {"NOR2", 0}} {
		res, err := m.Find(subgemini.Cell(tc.cell).Pattern())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Instances) != tc.want {
			t.Errorf("%s: found %d, want %d", tc.cell, len(res.Instances), tc.want)
		}
	}
}

func TestFacadeSubcktRoundTrip(t *testing.T) {
	pat := subgemini.Cell("NAND2").Pattern()
	var buf strings.Builder
	if err := subgemini.WriteSubckt(&buf, pat); err != nil {
		t.Fatal(err)
	}
	f, err := subgemini.ParseNetlist(buf.String(), "rt.sp")
	if err != nil {
		t.Fatal(err)
	}
	back, err := f.Pattern("NAND2")
	if err != nil {
		t.Fatal(err)
	}
	res, err := subgemini.Compare(pat, back, subgemini.CompareOptions{PortsByName: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Isomorphic {
		t.Errorf("round-tripped pattern differs: %s", res.Reason)
	}
}

func TestFacadeVerilogRoundTrip(t *testing.T) {
	c := parseMain(t)
	var buf strings.Builder
	if err := subgemini.WriteVerilog(&buf, c, "m"); err != nil {
		t.Fatal(err)
	}
	mod, err := subgemini.ParseVerilog(strings.NewReader(buf.String()), "m.v")
	if err != nil {
		t.Fatal(err)
	}
	mod.Circuit.MarkGlobal("VDD")
	mod.Circuit.MarkGlobal("GND")
	res, err := subgemini.Compare(c, mod.Circuit, subgemini.CompareOptions{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Isomorphic {
		t.Errorf("verilog round trip differs: %s", res.Reason)
	}
}

func TestFacadeJSONRoundTrip(t *testing.T) {
	c := parseMain(t)
	var buf strings.Builder
	if err := subgemini.EncodeCircuitJSON(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := subgemini.DecodeCircuitJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := subgemini.Compare(c, back, subgemini.CompareOptions{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Isomorphic {
		t.Errorf("JSON round trip differs: %s", res.Reason)
	}
}

func TestFacadeRecognizeGates(t *testing.T) {
	c := parseMain(t)
	res, err := subgemini.RecognizeGates(c, "VDD", "GND")
	if err != nil {
		t.Fatal(err)
	}
	kinds := res.KindCounts()
	if kinds["NAND2"] != 1 || kinds["INV"] != 1 {
		t.Errorf("recognized %v, want one NAND2 and one INV", kinds)
	}
}

func TestFacadeHierarchicalCompare(t *testing.T) {
	src := `
.GLOBAL VDD GND
.SUBCKT I A Y
MP Y A VDD pmos
MN Y A GND nmos
.ENDS
X1 a b I
.END
`
	fa, err := subgemini.ParseNetlist(src, "a.sp")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := subgemini.ParseNetlist(src, "b.sp")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := subgemini.CompareHierarchical(fa, fb, subgemini.CompareOptions{Globals: []string{"VDD", "GND"}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Isomorphic() {
		t.Errorf("identical hierarchical netlists differ:\n%s", rep.Summary())
	}
}

func TestFacadeFindParallel(t *testing.T) {
	c := parseMain(t)
	res, err := subgemini.FindParallel(c, subgemini.Cell("INV").Pattern(),
		subgemini.Options{Globals: []string{"VDD", "GND"}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Errorf("parallel found %d, want 1", len(res.Instances))
	}
}

package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
)

// TestDesignAblations runs the two design-choice ablations DESIGN.md §4
// calls out (EXPERIMENTS.md E7) and logs one row per run; go test -v
// prints them.  The Phase II match-time degree check is measured where it
// matters most, false candidates in a degree-uniform pass-transistor
// fabric; the fold of global-net pins into Phase I's initial device labels
// on a rail-anchored single-transistor rule pattern with two planted
// violations in a large adder.  Either ablation may change effort only,
// never the instances, and the fold must shrink the candidate vector.
func TestDesignAblations(t *testing.T) {
	sg := gen.SwitchGrid(12, 12)
	pass := gen.PassChainPattern(12)

	big := gen.RippleAdder(256)
	mosCls := []graph.TermClass{graph.ClassDS, graph.ClassGate, graph.ClassDS}
	vdd := big.C.NetByName("VDD")
	big.C.MustAddDevice("bad1", "nmos", mosCls, []*graph.Net{vdd, big.C.AddNet("en1"), big.C.AddNet("x1")})
	big.C.MustAddDevice("bad2", "nmos", mosCls, []*graph.Net{vdd, big.C.AddNet("en2"), big.C.AddNet("x2")})
	pullup := extract.StandardRules()[0].Pattern

	run := func(name string, g, s *graph.Circuit, degreeCheck, globalFold bool) *core.Result {
		t.Helper()
		restore := core.AblateForTest(!degreeCheck, !globalFold)
		defer restore()
		res, err := core.Find(g, s, core.Options{Globals: rails})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%-45s |CV| %5d  instances %d  total %-10v  %d guesses, %d backtracks",
			name, res.Report.CVSize, len(res.Instances), res.Report.Total(), res.Report.Guesses, res.Report.Backtracks)
		return res
	}
	degOn := run("passchain12/switchgrid12 degree check on", sg.C, pass, true, true)
	degOff := run("passchain12/switchgrid12 degree check off", sg.C, pass, false, true)
	foldOn := run("nmos-pullup/adder256 global fold on", big.C, pullup, true, true)
	foldOff := run("nmos-pullup/adder256 global fold off", big.C, pullup, true, false)

	if a, b := len(degOn.Instances), len(degOff.Instances); a != b || a == 0 {
		t.Errorf("degree-check ablation: %d instances on, %d off; want equal and non-zero", a, b)
	}
	if a, b := len(foldOn.Instances), len(foldOff.Instances); a != b || a != 2 {
		t.Errorf("global-fold ablation: %d instances on, %d off; want the 2 planted violations both times", a, b)
	}
	if foldOn.Report.CVSize >= foldOff.Report.CVSize {
		t.Errorf("global fold did not shrink the candidate vector: %d on, %d off", foldOn.Report.CVSize, foldOff.Report.CVSize)
	}
}

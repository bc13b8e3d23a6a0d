package core_test

import (
	"strconv"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/obs"
	"subgemini/internal/stdcell"
)

// TestAdmitSound holds the Phase II admit filter to its soundness claim on
// generated designs against every library cell and a wildcard inverter,
// with and without globals,
// with a bound port, and under NonOverlapping: every candidate admit
// rejects has no instance when verified without the filter
// (core.AdmitAuditForTest), Find's instances and their order equal the
// filter-off run's, and Report.Filtered counts exactly the audit's
// rejections.  The random and tiled designs must see rejections, so the
// test cannot pass by a filter that rejects nothing.
func TestAdmitSound(t *testing.T) {
	tiled := []func() *graph.Circuit{
		func() *graph.Circuit { return gen.RippleAdder(8).C },
		func() *graph.Circuit { return gen.ArrayMultiplier(3).C },
		func() *graph.Circuit { return gen.ShiftRegister(4).C },
		func() *graph.Circuit { return gen.SRAMArray(4, 4).C },
		func() *graph.Circuit { return gen.ALUDatapath(4).C },
		func() *graph.Circuit { return gen.RegisterFile(4, 4).C },
	}
	designs := []struct {
		name    string
		builds  []func() *graph.Circuit
		extra   []*graph.Circuit // patterns beyond the library
		mustCut bool             // the filter must reject something here
	}{
		{"tiled", tiled, nil, true},
		{"rand1000", []func() *graph.Circuit{
			func() *graph.Circuit { return gen.RandomLogic(1000, 1000/64+8, 11).C }}, nil, true},
		{"grid6", []func() *graph.Circuit{func() *graph.Circuit { return gen.SwitchGrid(6, 4).C }},
			[]*graph.Circuit{gen.PassChainPattern(3), gen.PassChainPattern(4)}, false},
	}
	type config struct {
		name string
		opts core.Options
	}
	for _, d := range designs {
		d := d
		t.Run(d.name, func(t *testing.T) {
			configs := []config{
				{"globals", core.Options{Globals: rails}},
				{"plain", core.Options{}},
				{"nonoverlap", core.Options{Globals: rails, Policy: core.NonOverlapping}},
			}
			patterns := append(d.extra, wildcardInverter(t))
			for _, cell := range stdcell.All() {
				patterns = append(patterns, cell.Pattern())
			}
			filtered := 0
			for _, build := range d.builds {
				for _, c := range configs {
					g := build()
					for _, s := range patterns {
						filtered += auditAdmit(t, c.name, g, s, c.opts)
					}
				}
				// Bind each pattern's first non-rail port to its image in
				// the first instance, so the bound run still has one.
				g := build()
				for _, s := range patterns {
					res, err := core.Find(g, s, core.Options{Globals: rails})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Instances) == 0 {
						continue
					}
					for _, pn := range s.Nets {
						if pn.Port && !pn.Global {
							opts := core.Options{Globals: rails, Bind: map[string]string{pn.Name: res.Instances[0].NetMap[pn].Name}}
							filtered += auditAdmit(t, "bind-"+pn.Name, g, s, opts)
							break
						}
					}
				}
			}
			if d.mustCut && filtered == 0 {
				t.Errorf("admit rejected no candidate on %s; the soundness check is vacuous", d.name)
			}
			t.Logf("%s: %d candidates filtered", d.name, filtered)
		})
	}
}

// auditAdmit runs Find and the filter-off audit of s on g under opts and
// checks they agree; it returns how many candidates admit rejected.
func auditAdmit(t *testing.T, cfg string, g, s *graph.Circuit, opts core.Options) int {
	t.Helper()
	res, err := core.Find(g, s, opts)
	if err != nil {
		t.Fatalf("%s/%s: Find: %v", cfg, s.Name, err)
	}
	m, err := core.NewMatcher(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, rejected, err := core.AdmitAuditForTest(m, s)
	if err != nil {
		t.Fatalf("%s/%s: %v", cfg, s.Name, err)
	}
	if got, want := instStrings(res), instStrings(ref); !sameOrdered(got, want) {
		t.Errorf("%s/%s: filtered run found %d instances, filter-off run %d (or order differs)\nfiltered: %v\nfilter-off: %v",
			cfg, s.Name, len(got), len(want), got, want)
	}
	if res.Report.Filtered != rejected {
		t.Errorf("%s/%s: Report.Filtered = %d, audit rejected %d", cfg, s.Name, res.Report.Filtered, rejected)
	}
	return rejected
}

// TestReportFiltered pins the Filtered counter on NAND2 in random logic,
// where most candidates are false: the filter rejects some, only false
// ones, FindParallel sums the same count over its workers, and the phase2
// span carries it as its filtered attr on Find and on a capturing
// FindIncremental run.
func TestReportFiltered(t *testing.T) {
	g := gen.RandomLogic(1000, 1000/64+8, 11).C
	filteredAttr := func(tl *obs.Timeline) string {
		for _, sp := range tl.JSON().Spans {
			if sp.Kind == obs.KindPhase2 {
				return sp.Attrs["filtered"]
			}
		}
		t.Fatal("no phase2 span recorded")
		return ""
	}
	tl := obs.NewTimeline("r-filtered", "http", "POST", "/v1/match")
	m, err := core.NewMatcher(g, core.Options{Globals: rails, Observe: tl.Scope(obs.NoSpan)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Find(stdcell.NAND2.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	tl.Finish(200)
	r := &res.Report
	if r.Filtered <= 0 || r.Filtered > r.Candidates-r.CandidatesMatched {
		t.Errorf("Filtered = %d, want in 1..%d (candidates %d, matched %d)",
			r.Filtered, r.Candidates-r.CandidatesMatched, r.Candidates, r.CandidatesMatched)
	}
	want := strconv.Itoa(r.Filtered)
	if got := filteredAttr(tl); got != want {
		t.Errorf("phase2 span filtered attr = %q, want %q", got, want)
	}

	par, err := core.NewMatcher(g, core.Options{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.FindParallel(stdcell.NAND2.Pattern(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Report.Filtered != r.Filtered {
		t.Errorf("FindParallel Filtered = %d, Find %d", pres.Report.Filtered, r.Filtered)
	}

	tl = obs.NewTimeline("r-filtered-inc", "http", "POST", "/v1/match")
	inc, err := core.NewMatcher(g, core.Options{Globals: rails, Observe: tl.Scope(obs.NoSpan)})
	if err != nil {
		t.Fatal(err)
	}
	ires, _, err := inc.FindIncremental(stdcell.NAND2.Pattern(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tl.Finish(200)
	if ires.Report.Filtered != r.Filtered {
		t.Errorf("FindIncremental Filtered = %d, Find %d", ires.Report.Filtered, r.Filtered)
	}
	if got := filteredAttr(tl); got != want {
		t.Errorf("capturing run's phase2 span filtered attr = %q, want %q", got, want)
	}
}

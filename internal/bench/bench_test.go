package bench

import "testing"

// The harness tests run every experiment at reduced scale and assert the
// structural properties EXPERIMENTS.md relies on, so a regression in the
// harness itself (not just the matcher) fails CI.

func TestResultsTableCountsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	rows, err := ResultsTable(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Suite(1)) {
		t.Fatalf("%d rows, want %d", len(rows), len(Suite(1)))
	}
	for _, r := range rows {
		if r.Found != r.Expected {
			t.Errorf("%s/%s: found %d, expected %d", r.Circuit, r.Pattern, r.Found, r.Expected)
		}
		if r.Found > 0 && r.CVSize < r.Found {
			t.Errorf("%s/%s: |CV| %d smaller than instance count %d (filter unsound)",
				r.Circuit, r.Pattern, r.CVSize, r.Found)
		}
		if r.Devices <= 0 || r.Nets <= 0 {
			t.Errorf("%s: degenerate workload", r.Circuit)
		}
	}
}

func TestScalingSeriesShape(t *testing.T) {
	pts, err := ScalingSeries(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no scaling points")
	}
	bySeries := map[string][]ScalePoint{}
	for _, p := range pts {
		bySeries[p.Series] = append(bySeries[p.Series], p)
		if p.Instances <= 0 || p.Matched <= 0 {
			t.Errorf("%s/%d: no instances matched", p.Series, p.Param)
		}
	}
	for name, series := range bySeries {
		if len(series) < 2 {
			t.Errorf("series %s has %d points, want >= 2", name, len(series))
			continue
		}
		for i := 1; i < len(series); i++ {
			if series[i].Matched <= series[i-1].Matched {
				t.Errorf("series %s not growing at point %d", name, i)
			}
		}
	}
}

func TestAblationShape(t *testing.T) {
	rows, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) *AblationRow {
		for i := range rows {
			if rows[i].Case == name {
				return &rows[i]
			}
		}
		t.Fatalf("row %q missing", name)
		return nil
	}
	// Special signals shrink the false-instance count (Fig. 7).
	special := get("INV/mult6 rails special")
	ordinary := get("INV/mult6 rails ordinary")
	if ordinary.Instances <= special.Instances {
		t.Errorf("rails-ordinary found %d instances, special %d: expected more false hits without specials",
			ordinary.Instances, special.Instances)
	}
	// The degree check never changes counts, only effort.
	on := get("passchain12/switchgrid12 degree check on")
	off := get("passchain12/switchgrid12 degree check off")
	if on.Instances != off.Instances {
		t.Errorf("degree-check ablation changed the result: %d vs %d", on.Instances, off.Instances)
	}
	// The global fold shrinks the candidate vector dramatically.
	foldOn := get("nmos-pullup/adder256 global fold on")
	foldOff := get("nmos-pullup/adder256 global fold off")
	if foldOn.Instances != foldOff.Instances {
		t.Errorf("global-fold ablation changed the result: %d vs %d", foldOn.Instances, foldOff.Instances)
	}
	if foldOn.CVSize >= foldOff.CVSize {
		t.Errorf("global fold did not shrink CV: %d vs %d", foldOn.CVSize, foldOff.CVSize)
	}
	// E8: early abort examines nothing.
	abort := get("SRAM6T/adder256 (absent)")
	if abort.Instances != 0 || abort.CVSize != 0 {
		t.Errorf("early-abort row wrong: %+v", abort)
	}
}

func TestExtractionCoverageShape(t *testing.T) {
	rows, err := ExtractionCoverage()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]CoverageRow{}
	for _, r := range rows {
		byName[r.Circuit] = r
	}
	// Static logic: both methods cover everything.
	if r := byName["mult4"]; r.AdhocCover < 0.999 || r.SubgCover < 0.999 {
		t.Errorf("mult4 coverage: adhoc %.2f subg %.2f, want both 1.0", r.AdhocCover, r.SubgCover)
	}
	// Sequential and memory: the ad hoc method collapses, SubGemini holds.
	for _, name := range []string{"counter16", "shiftreg16", "sram8x8"} {
		r := byName[name]
		if r.AdhocCover > 0.5 {
			t.Errorf("%s: adhoc coverage %.2f, expected < 0.5 (pass structures defeat it)", name, r.AdhocCover)
		}
		if r.SubgCover < 0.9 {
			t.Errorf("%s: subgemini coverage %.2f, want >= 0.9", name, r.SubgCover)
		}
	}
	if r := byName["switchgrid8"]; r.AdhocGates != 0 {
		t.Errorf("switchgrid8: adhoc recognized %d gates, want 0", r.AdhocGates)
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("plain-DFS rows take seconds")
	}
	rows, err := BaselineComparison(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 6 {
		t.Fatalf("%d rows, want >= 6", len(rows))
	}
	var grid *BaselineRow
	for i := range rows {
		if rows[i].Circuit == "switchgrid12" {
			grid = &rows[i]
		}
		if rows[i].SubGemini <= 0 || rows[i].Pruned <= 0 || rows[i].Plain <= 0 {
			t.Errorf("%s: zero timing", rows[i].Circuit)
		}
	}
	if grid == nil {
		t.Fatal("switchgrid12 row missing")
	}
	if grid.Instances != 0 {
		t.Errorf("switchgrid12 instances = %d, want 0", grid.Instances)
	}
	if grid.Speedup < 100 {
		t.Errorf("switchgrid12 speedup vs plain DFS = %.0fx, want >= 100x", grid.Speedup)
	}
	if grid.PlainSteps < 1_000_000 {
		t.Errorf("plain DFS steps = %d, expected millions on the fabric", grid.PlainSteps)
	}
}

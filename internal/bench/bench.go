// Package bench implements the experiment harness that regenerates the
// paper's evaluation artifacts (DESIGN.md experiments E4–E9).  Each
// experiment returns typed rows; cmd/benchtab formats them as the text
// tables recorded in EXPERIMENTS.md, and the module-root benchmarks drive
// the same functions under testing.B.
package bench

import (
	"fmt"
	"time"

	"subgemini/internal/baseline"
	"subgemini/internal/core"
	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/sprecog"
	"subgemini/internal/stats"
	"subgemini/internal/stdcell"
)

// Rails are the special signals used by every experiment.
var Rails = []string{"VDD", "GND"}

// Workload is one (circuit, pattern) pair of the evaluation suite.
type Workload struct {
	Name    string
	Build   func() *gen.Design
	Pattern *stdcell.CellDef
}

// Row is one line of the E4 results table.
type Row struct {
	Circuit   string
	Devices   int
	Nets      int
	Pattern   string
	Expected  int
	Found     int
	CVSize    int
	Matched   int // total devices inside matched instances
	P1        time.Duration
	P2        time.Duration
	Total     time.Duration
	PerDevice time.Duration // Total / max(Matched, 1)
	Report    stats.Report
}

// Suite returns the E4 evaluation suite.  scale 1 is the paper-comparable
// configuration; smaller scales are used by -quick runs and tests.
func Suite(scale int) []Workload {
	if scale < 1 {
		scale = 1
	}
	s := scale
	return []Workload{
		{fmt.Sprintf("adder%d", 16*s), func() *gen.Design { return gen.RippleAdder(16 * s) }, stdcell.FA},
		{fmt.Sprintf("adder%d", 64*s), func() *gen.Design { return gen.RippleAdder(64 * s) }, stdcell.FA},
		{fmt.Sprintf("adder%d/INV", 64*s), func() *gen.Design { return gen.RippleAdder(64 * s) }, stdcell.INV},
		{fmt.Sprintf("mult%d", 8*s), func() *gen.Design { return gen.ArrayMultiplier(8 * s) }, stdcell.FA},
		{fmt.Sprintf("mult%d/AND2", 8*s), func() *gen.Design { return gen.ArrayMultiplier(8 * s) }, stdcell.AND2},
		{fmt.Sprintf("counter%d", 32*s), func() *gen.Design { return gen.RippleCounter(32 * s) }, stdcell.DFF},
		{fmt.Sprintf("shiftreg%d", 64*s), func() *gen.Design { return gen.ShiftRegister(64 * s) }, stdcell.DFF},
		{fmt.Sprintf("sram%dx%d", 16*s, 16*s), func() *gen.Design { return gen.SRAMArray(16*s, 16*s) }, stdcell.SRAM6T},
		{fmt.Sprintf("alu%d", 16*s), func() *gen.Design { return gen.ALUDatapath(16 * s) }, stdcell.MUX2},
		{fmt.Sprintf("alu%d/DFF", 16*s), func() *gen.Design { return gen.ALUDatapath(16 * s) }, stdcell.DFF},
		{fmt.Sprintf("regfile%dx%d", 8*s, 8*s), func() *gen.Design { return gen.RegisterFile(8*s, 8*s) }, stdcell.TINV},
		{fmt.Sprintf("rand%d/NAND2", 1000*s), func() *gen.Design { return gen.RandomLogic(1000*s, 32, 11) }, stdcell.NAND2},
		{fmt.Sprintf("rand%d/XOR2", 1000*s), func() *gen.Design { return gen.RandomLogic(1000*s, 32, 11) }, stdcell.XOR2},
	}
}

// Run executes one workload and returns its results-table row.
func Run(w Workload) (Row, error) {
	d := w.Build()
	expected := d.Expected(w.Pattern)
	res, err := core.Find(d.C, w.Pattern.Pattern(), core.Options{Globals: Rails})
	if err != nil {
		return Row{}, fmt.Errorf("bench: %s: %w", w.Name, err)
	}
	matched := res.Report.MatchedDevices
	per := time.Duration(0)
	if matched > 0 {
		per = res.Report.Total() / time.Duration(matched)
	}
	return Row{
		Circuit:   w.Name,
		Devices:   d.C.NumDevices(),
		Nets:      d.C.NumNets(),
		Pattern:   w.Pattern.Name,
		Expected:  expected,
		Found:     len(res.Instances),
		CVSize:    res.Report.CVSize,
		Matched:   matched,
		P1:        res.Report.Phase1Duration,
		P2:        res.Report.Phase2Duration,
		Total:     res.Report.Total(),
		PerDevice: per,
		Report:    res.Report,
	}, nil
}

// ResultsTable runs the whole E4 suite.
func ResultsTable(scale int) ([]Row, error) {
	var rows []Row
	for _, w := range Suite(scale) {
		row, err := Run(w)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScalePoint is one point of the E5 linearity figure.
type ScalePoint struct {
	Series    string
	Param     int // generator parameter (bits, gates, rows)
	Devices   int // main-circuit size
	Matched   int // total devices inside matched instances
	Instances int
	Total     time.Duration
	PerDevice float64 // microseconds per matched device
}

// ScalingSeries runs the E5 sweep: the same pattern matched in growing
// circuits.  The paper's claim is that Total grows linearly with Matched,
// i.e. PerDevice stays flat.  quick truncates each sweep to its three
// smallest sizes.
func ScalingSeries(quick bool) ([]ScalePoint, error) {
	type series struct {
		name    string
		pattern *stdcell.CellDef
		build   func(n int) *gen.Design
		params  []int
	}
	sweeps := []series{
		{"FA-in-adder", stdcell.FA, gen.RippleAdder, []int{64, 128, 256, 512, 1024, 2048}},
		{"NAND2-in-rand", stdcell.NAND2, func(n int) *gen.Design { return gen.RandomLogic(n, 32, 11) }, []int{250, 500, 1000, 2000, 4000}},
		{"6T-in-sram", stdcell.SRAM6T, func(n int) *gen.Design { return gen.SRAMArray(n, n) }, []int{8, 16, 32, 64}},
	}
	var pts []ScalePoint
	for _, sw := range sweeps {
		params := sw.params
		if quick && len(params) > 3 {
			params = params[:3]
		}
		for _, param := range params {
			d := sw.build(param)
			res, err := core.Find(d.C, sw.pattern.Pattern(), core.Options{Globals: Rails})
			if err != nil {
				return pts, err
			}
			matched := res.Report.MatchedDevices
			per := 0.0
			if matched > 0 {
				per = float64(res.Report.Total().Microseconds()) / float64(matched)
			}
			pts = append(pts, ScalePoint{
				Series:    sw.name,
				Param:     param,
				Devices:   d.C.NumDevices(),
				Matched:   matched,
				Instances: len(res.Instances),
				Total:     res.Report.Total(),
				PerDevice: per,
			})
		}
	}
	return pts, nil
}

// BaselineRow is one line of the E6 comparison: SubGemini vs the
// reference [6]-style exhaustive DFS ("plain") and vs a modern DFS with
// degree-feasibility pruning ("pruned").
type BaselineRow struct {
	Circuit      string
	Devices      int
	Pattern      string
	Instances    int
	SubGemini    time.Duration
	Pruned       time.Duration
	Plain        time.Duration
	PlainSteps   int
	PlainAborted bool // plain DFS hit its step budget and was cut off
	Speedup      float64
}

// plainStepBudget bounds the exhaustive DFS so pathological rows terminate;
// an aborted row is reported as a lower bound.
const plainStepBudget = 50_000_000

// BaselineComparison runs E6.  The regular workloads show all three
// matchers agreeing; the inverter-tree rows are the adversarial case the
// paper describes in §IV ("one wrong guess early on can cause much wasted
// time"): a chain pattern in a fanout tree, where exhaustive DFS attempts
// every tree path and SubGemini's Phase I filter answers almost instantly.
func BaselineComparison(scale int) ([]BaselineRow, error) {
	if scale < 1 {
		scale = 1
	}
	type tcase struct {
		name    string
		build   func() *gen.Design
		pattern func() *graph.Circuit
	}
	cell := func(c *stdcell.CellDef) func() *graph.Circuit {
		return func() *graph.Circuit { return c.Pattern() }
	}
	cases := []tcase{
		{"adder16", func() *gen.Design { return gen.RippleAdder(16) }, cell(stdcell.FA)},
		{"counter8", func() *gen.Design { return gen.RippleCounter(8) }, cell(stdcell.DFF)},
		{"sram8x8", func() *gen.Design { return gen.SRAMArray(8, 8) }, cell(stdcell.SRAM6T)},
		{"rand1000", func() *gen.Design { return gen.RandomLogic(1000, 32, 11) }, cell(stdcell.NAND2)},
		{"invtree10+chain", func() *gen.Design { return gen.InverterTree(10, 6) }, func() *graph.Circuit { return gen.ChainPattern(6) }},
		{"nandmesh16+chain", func() *gen.Design { return gen.NandMesh(16, 14) }, func() *graph.Circuit { return gen.NandChainPattern(14) }},
		{"switchgrid12", func() *gen.Design { return gen.SwitchGrid(12, 0) }, func() *graph.Circuit { return gen.PassChainPattern(12) }},
		{"switchgrid12+chain", func() *gen.Design { return gen.SwitchGrid(12, 12) }, func() *graph.Circuit { return gen.PassChainPattern(12) }},
	}
	var rows []BaselineRow
	for _, c := range cases {
		d := c.build()
		t0 := time.Now()
		res, err := core.Find(d.C.Clone(), c.pattern(), core.Options{Globals: Rails})
		if err != nil {
			return rows, err
		}
		subT := time.Since(t0)

		t0 = time.Now()
		pruned, err := baseline.Find(d.C.Clone(), c.pattern(), baseline.Options{Globals: Rails})
		if err != nil {
			return rows, err
		}
		prunedT := time.Since(t0)

		t0 = time.Now()
		plain, err := baseline.Find(d.C.Clone(), c.pattern(), baseline.Options{Globals: Rails, Plain: true, MaxSteps: plainStepBudget})
		if err != nil {
			return rows, err
		}
		plainT := time.Since(t0)

		if len(pruned.Instances) != len(res.Instances) {
			return rows, fmt.Errorf("bench: %s: core found %d, pruned DFS %d", c.name, len(res.Instances), len(pruned.Instances))
		}
		if !plain.Aborted && len(plain.Instances) != len(res.Instances) {
			return rows, fmt.Errorf("bench: %s: core found %d, plain DFS %d", c.name, len(res.Instances), len(plain.Instances))
		}
		speed := 0.0
		if subT > 0 {
			speed = float64(plainT) / float64(subT)
		}
		rows = append(rows, BaselineRow{
			Circuit:      c.name,
			Devices:      d.C.NumDevices(),
			Pattern:      c.pattern().Name,
			Instances:    len(res.Instances),
			SubGemini:    subT,
			Pruned:       prunedT,
			Plain:        plainT,
			PlainSteps:   plain.Steps,
			PlainAborted: plain.Aborted,
			Speedup:      speed,
		})
	}
	return rows, nil
}

// CoverageRow is one line of the E9 comparison between the classical ad
// hoc gate recognizer (channel graphs + series-parallel analysis,
// paper §I refs [1,5,7]) and SubGemini library extraction.
type CoverageRow struct {
	Circuit     string
	Devices     int
	AdhocGates  int     // gates the recognizer identified
	AdhocNamed  int     // of those, standard-named (INV/NANDx/AOI/...)
	AdhocCover  float64 // fraction of MOS devices inside recognized gates
	SubgCells   int     // cells SubGemini extraction claimed
	SubgCover   float64 // fraction of devices claimed by extraction
	AdhocTime   time.Duration
	SubgTime    time.Duration
	Description string
}

// ExtractionCoverage runs E9: both methods attempt to structure the same
// transistor netlists.  The paper's §I argument is that ad hoc methods
// "do not generalize to different subcircuit structures": they do well on
// static combinational logic and collapse on pass-transistor circuits,
// while library matching handles both with one algorithm.
func ExtractionCoverage() ([]CoverageRow, error) {
	lib := stdcell.All()
	cases := []struct {
		name  string
		build func() *gen.Design
		desc  string
	}{
		{"mult4", func() *gen.Design { return gen.ArrayMultiplier(4) }, "static combinational (AND2 + FA)"},
		{"counter16", func() *gen.Design { return gen.RippleCounter(16) }, "sequential (DFF + INV)"},
		{"shiftreg16", func() *gen.Design { return gen.ShiftRegister(16) }, "sequential (DFF chain)"},
		{"sram8x8", func() *gen.Design { return gen.SRAMArray(8, 8) }, "memory (6T cells + periphery)"},
		{"switchgrid8", func() *gen.Design { return gen.SwitchGrid(8, 0) }, "pass-transistor fabric"},
	}
	var rows []CoverageRow
	for _, c := range cases {
		d := c.build()
		mosTotal := d.TransistorCount()

		t0 := time.Now()
		rec, err := sprecog.Recognize(d.C.Clone(), "VDD", "GND")
		adhocTime := time.Since(t0)
		adhocGates, adhocNamed, adhocCovered := 0, 0, 0
		if err == nil {
			adhocGates = len(rec.Gates)
			adhocCovered = rec.RecognizedDevices()
			for _, g := range rec.Gates {
				if g.Kind != "CMOS" {
					adhocNamed++
				}
			}
		} else {
			return rows, fmt.Errorf("bench: %s: %w", c.name, err)
		}

		work := d.C.Clone()
		t0 = time.Now()
		extracted, err := extract.Cells(work, lib, extract.Options{Globals: Rails})
		subgTime := time.Since(t0)
		if err != nil {
			return rows, fmt.Errorf("bench: %s: %w", c.name, err)
		}
		cells, claimed := 0, 0
		for _, e := range extracted {
			cells += e.Count
			if cell := stdcell.Get(e.Cell); cell != nil {
				claimed += e.Count * cell.NumTransistors()
			}
		}
		rows = append(rows, CoverageRow{
			Circuit:     c.name,
			Devices:     mosTotal,
			AdhocGates:  adhocGates,
			AdhocNamed:  adhocNamed,
			AdhocCover:  float64(adhocCovered) / float64(mosTotal),
			SubgCells:   cells,
			SubgCover:   float64(claimed) / float64(mosTotal),
			AdhocTime:   adhocTime,
			SubgTime:    subgTime,
			Description: c.desc,
		})
	}
	return rows, nil
}

// AblationRow is one line of the E7/E8 ablation table.
type AblationRow struct {
	Case      string
	CVSize    int
	Instances int
	Total     time.Duration
	Note      string
}

// Ablation runs E7 (special signals on/off) and E8 (early abort on an
// impossible pattern).
func Ablation() ([]AblationRow, error) {
	var rows []AblationRow

	// E7: DFF in a shift register, with and without special rails.
	d := gen.ShiftRegister(64)
	res, err := core.Find(d.C.Clone(), stdcell.DFF.Pattern(), core.Options{Globals: Rails})
	if err != nil {
		return rows, err
	}
	rows = append(rows, AblationRow{
		Case: "DFF/shiftreg64 rails special", CVSize: res.Report.CVSize,
		Instances: len(res.Instances), Total: res.Report.Total(),
		Note: "rails pre-matched by name, never labeled",
	})
	res, err = core.Find(d.C.Clone(), stdcell.DFF.Pattern(), core.Options{})
	if err != nil {
		return rows, err
	}
	rows = append(rows, AblationRow{
		Case: "DFF/shiftreg64 rails ordinary", CVSize: res.Report.CVSize,
		Instances: len(res.Instances), Total: res.Report.Total(),
		Note: "rails labeled like any net (Fig. 7 regime)",
	})

	// E7b: INV in a multiplier — the pattern most affected by Fig. 7.
	m := gen.ArrayMultiplier(6)
	res, err = core.Find(m.C.Clone(), stdcell.INV.Pattern(), core.Options{Globals: Rails})
	if err != nil {
		return rows, err
	}
	rows = append(rows, AblationRow{
		Case: "INV/mult6 rails special", CVSize: res.Report.CVSize,
		Instances: len(res.Instances), Total: res.Report.Total(),
		Note: "true inverters only",
	})
	res, err = core.Find(m.C.Clone(), stdcell.INV.Pattern(), core.Options{})
	if err != nil {
		return rows, err
	}
	rows = append(rows, AblationRow{
		Case: "INV/mult6 rails ordinary", CVSize: res.Report.CVSize,
		Instances: len(res.Instances), Total: res.Report.Total(),
		Note: "includes Fig. 7 false inverters inside gates",
	})

	// E8: impossible pattern — Phase I must abort without Phase II work.
	a := gen.RippleAdder(256)
	res, err = core.Find(a.C, stdcell.SRAM6T.Pattern(), core.Options{Globals: Rails})
	if err != nil {
		return rows, err
	}
	note := "early abort"
	if !res.Report.EarlyAbort && res.Report.Candidates > 0 {
		note = fmt.Sprintf("examined %d candidates", res.Report.Candidates)
	}
	rows = append(rows, AblationRow{
		Case: "SRAM6T/adder256 (absent)", CVSize: res.Report.CVSize,
		Instances: len(res.Instances), Total: res.Report.Total(),
		Note: note,
	})
	return rows, nil
}

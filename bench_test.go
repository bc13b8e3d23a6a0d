// The paper's evaluation (DESIGN.md experiments E4–E9) as Go benchmarks,
// the one harness that runs it.  Each table is one benchmark and each of
// its cells one sub-benchmark, which reports the table's columns with
// b.ReportMetric; the cells are defined once, as data, below.
// The Test functions run every cell once and assert the shapes
// EXPERIMENTS.md relies on.  Regenerate the tables, ten samples a cell,
// with
//
//	make bench
//
// which runs `go test -run '^$' -bench 'BenchmarkE[4-9]' -benchtime 0.4s
// -count 10 .` and pipes the output through cmd/benchtab: the median and
// interquartile range of every column, archived as BENCH_<rev>.json.
package subgemini_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"subgemini/internal/baseline"
	"subgemini/internal/core"
	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/sprecog"
	"subgemini/internal/stdcell"
)

// rails are the special signals of every cell except E7's rails-ordinary
// ones.
var rails = []string{"VDD", "GND"}

// metrics are one run of a cell: a value per benchmark unit.
type metrics map[string]float64

// cell is one measured cell of a paper table.  setup builds its inputs,
// untimed, and returns the timed operation; op returns the run's metrics.
// A long cell takes seconds and is skipped by `go test -short`.
type cell struct {
	name  string
	long  bool
	setup func() (op func() (metrics, error))
}

// benchCells runs each cell as a sub-benchmark and reports the mean of
// each of its metrics over the b.N runs, plus ns/matched-dev when the
// cell reports matched devices.
func benchCells(b *testing.B, cells []cell) {
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			op := c.setup()
			sum := metrics{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := op()
				if err != nil {
					b.Fatal(err)
				}
				for unit, v := range m {
					sum[unit] += v
				}
			}
			b.StopTimer()
			for unit, v := range sum {
				b.ReportMetric(v/float64(b.N), unit)
			}
			if matched := sum["matched-devs"] / float64(b.N); matched > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/matched, "ns/matched-dev")
			}
		})
	}
}

// find is a cell timing one core.Find of pat in the circuit build makes,
// with the given globals.  It reports the circuit's size, the instances
// found against the census count, |CV|, the Phase II candidates, the
// devices inside instances and the two phase times.
func find(name string, build func() *gen.Design, pat *stdcell.CellDef, globals []string) cell {
	return cell{name: name, setup: func() func() (metrics, error) {
		d := build()
		p := pat.Pattern()
		expected := d.Expected(pat)
		return func() (metrics, error) {
			res, err := core.Find(d.C, p, core.Options{Globals: globals})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			r := &res.Report
			return metrics{
				"devices":      float64(d.C.NumDevices()),
				"nets":         float64(d.C.NumNets()),
				"instances":    float64(len(res.Instances)),
				"expected":     float64(expected),
				"cv":           float64(r.CVSize),
				"candidates":   float64(r.Candidates),
				"matched-devs": float64(r.MatchedDevices),
				"phase1-ns":    float64(r.Phase1Duration),
				"phase2-ns":    float64(r.Phase2Duration),
			}, nil
		}
	}}
}

// randLogic is the random standard-cell logic of E4–E6: n gates, 32
// inputs, seed 11.
func randLogic(n int) *gen.Design { return gen.RandomLogic(n, 32, 11) }

// e4Cells are the E4 results table: the reconstructed CMOS suite, one row
// per (circuit, pattern) pair.
var e4Cells = func() []cell {
	rows := []struct {
		name  string
		build func() *gen.Design
		pat   *stdcell.CellDef
	}{
		{"adder16", func() *gen.Design { return gen.RippleAdder(16) }, stdcell.FA},
		{"adder64", func() *gen.Design { return gen.RippleAdder(64) }, stdcell.FA},
		{"adder64/INV", func() *gen.Design { return gen.RippleAdder(64) }, stdcell.INV},
		{"mult8", func() *gen.Design { return gen.ArrayMultiplier(8) }, stdcell.FA},
		{"mult8/AND2", func() *gen.Design { return gen.ArrayMultiplier(8) }, stdcell.AND2},
		{"counter32", func() *gen.Design { return gen.RippleCounter(32) }, stdcell.DFF},
		{"shiftreg64", func() *gen.Design { return gen.ShiftRegister(64) }, stdcell.DFF},
		{"sram16x16", func() *gen.Design { return gen.SRAMArray(16, 16) }, stdcell.SRAM6T},
		{"alu16", func() *gen.Design { return gen.ALUDatapath(16) }, stdcell.MUX2},
		{"alu16/DFF", func() *gen.Design { return gen.ALUDatapath(16) }, stdcell.DFF},
		{"regfile8x8", func() *gen.Design { return gen.RegisterFile(8, 8) }, stdcell.TINV},
		{"rand1000/NAND2", func() *gen.Design { return randLogic(1000) }, stdcell.NAND2},
		{"rand1000/XOR2", func() *gen.Design { return randLogic(1000) }, stdcell.XOR2},
	}
	cells := make([]cell, len(rows))
	for i, r := range rows {
		cells[i] = find(r.name, r.build, r.pat, rails)
		cells[i].long = true
	}
	return cells
}()

// e5Series are the E5 scaling series: one pattern in circuits of growing
// size.  The paper's claim is that ns/matched-dev stays flat along each.
// The shift-register series are clocked: their clock is an ordinary net.
var e5Series = []struct {
	name   string
	pat    *stdcell.CellDef
	build  func(n int) *gen.Design
	params []int
}{
	{"FA-in-adder", stdcell.FA, gen.RippleAdder, []int{64, 128, 256, 512, 1024, 2048}},
	{"NAND2-in-rand", stdcell.NAND2, randLogic, []int{250, 500, 1000, 2000, 4000}},
	{"6T-in-sram", stdcell.SRAM6T, func(n int) *gen.Design { return gen.SRAMArray(n, n) }, []int{8, 16, 32, 64}},
	{"DFF-in-shiftreg", stdcell.DFF, gen.ShiftRegister, []int{64, 256, 1024}},
	{"INV-in-shiftreg", stdcell.INV, gen.ShiftRegister, []int{64, 256, 1024}},
}

var e5Cells = func() []cell {
	var cells []cell
	for _, s := range e5Series {
		for _, n := range s.params {
			build := func() *gen.Design { return s.build(n) }
			cells = append(cells, find(fmt.Sprintf("%s/%d", s.name, n), build, s.pat, rails))
		}
	}
	return cells
}()

// plainStepBudget bounds the exhaustive DFS so pathological cells
// terminate; a cut-off run is a lower bound on its time.
const plainStepBudget = 50_000_000

// e6Cells are the E6 comparison: SubGemini against the [6]-style
// exhaustive DFS (plainDFS) and a DFS with degree-feasibility pruning
// (prunedDFS).  The tree, mesh and switch-grid cases are the adversarial
// ones of paper §IV, where "one wrong guess early on can cause much
// wasted time".
var e6Cells = func() []cell {
	std := func(c *stdcell.CellDef) func() *graph.Circuit { return c.Pattern }
	cases := []struct {
		name  string
		build func() *gen.Design
		pat   func() *graph.Circuit
	}{
		{"adder16", func() *gen.Design { return gen.RippleAdder(16) }, std(stdcell.FA)},
		{"counter8", func() *gen.Design { return gen.RippleCounter(8) }, std(stdcell.DFF)},
		{"sram8x8", func() *gen.Design { return gen.SRAMArray(8, 8) }, std(stdcell.SRAM6T)},
		{"rand1000", func() *gen.Design { return randLogic(1000) }, std(stdcell.NAND2)},
		{"invtree10+chain", func() *gen.Design { return gen.InverterTree(10, 6) }, func() *graph.Circuit { return gen.ChainPattern(6) }},
		{"nandmesh16+chain", func() *gen.Design { return gen.NandMesh(16, 14) }, func() *graph.Circuit { return gen.NandChainPattern(14) }},
		{"switchgrid12", func() *gen.Design { return gen.SwitchGrid(12, 0) }, func() *graph.Circuit { return gen.PassChainPattern(12) }},
		{"switchgrid12+chain", func() *gen.Design { return gen.SwitchGrid(12, 12) }, func() *graph.Circuit { return gen.PassChainPattern(12) }},
	}
	var cells []cell
	for _, c := range cases {
		matcher := func(m string, long bool, run func(g, s *graph.Circuit) (metrics, error)) cell {
			return cell{name: c.name + "/" + m, long: long, setup: func() func() (metrics, error) {
				d, p := c.build(), c.pat()
				return func() (metrics, error) { return run(d.C, p) }
			}}
		}
		cells = append(cells,
			matcher("subgemini", false, func(g, s *graph.Circuit) (metrics, error) {
				res, err := core.Find(g, s, core.Options{Globals: rails})
				if err != nil {
					return nil, err
				}
				return metrics{"instances": float64(len(res.Instances))}, nil
			}),
			matcher("prunedDFS", false, func(g, s *graph.Circuit) (metrics, error) {
				res, err := baseline.Find(g, s, baseline.Options{Globals: rails})
				if err != nil {
					return nil, err
				}
				return metrics{"instances": float64(len(res.Instances))}, nil
			}),
			matcher("plainDFS", true, func(g, s *graph.Circuit) (metrics, error) {
				res, err := baseline.Find(g, s, baseline.Options{Globals: rails, Plain: true, MaxSteps: plainStepBudget})
				if err != nil {
					return nil, err
				}
				cut := 0.0
				if res.Aborted {
					cut = 1
				}
				return metrics{"instances": float64(len(res.Instances)), "steps": float64(res.Steps), "cut-off": cut}, nil
			}),
		)
	}
	return cells
}()

// e7Cells are the E7 ablation: the supply rails as special signals
// (pre-matched by name, never labelled) against the rails as ordinary
// nets, where INV also matches the Fig. 7 false inverters inside gates.
var e7Cells = []cell{
	find("DFF-shiftreg64/rails-special", func() *gen.Design { return gen.ShiftRegister(64) }, stdcell.DFF, rails),
	find("DFF-shiftreg64/rails-ordinary", func() *gen.Design { return gen.ShiftRegister(64) }, stdcell.DFF, nil),
	find("INV-mult6/rails-special", func() *gen.Design { return gen.ArrayMultiplier(6) }, stdcell.INV, rails),
	find("INV-mult6/rails-ordinary", func() *gen.Design { return gen.ArrayMultiplier(6) }, stdcell.INV, nil),
}

// e8Cells are E8: a pattern with no instance, which Phase I's consistency
// checks must refute before Phase II examines a candidate.
var e8Cells = []cell{
	find("SRAM6T-adder256", func() *gen.Design { return gen.RippleAdder(256) }, stdcell.SRAM6T, rails),
}

// e9Cells are E9: the classical ad hoc gate recognizer (channel graphs and
// series-parallel analysis, paper §I refs [1,5,7]) against SubGemini
// library extraction on the same netlists.  coverage is the share of MOS
// devices each method structures.  Extraction consumes its circuit, so
// each of its runs clones the circuit first.
var e9Cells = func() []cell {
	cases := []struct {
		name  string
		build func() *gen.Design
	}{
		{"mult4", func() *gen.Design { return gen.ArrayMultiplier(4) }},
		{"counter16", func() *gen.Design { return gen.RippleCounter(16) }},
		{"shiftreg16", func() *gen.Design { return gen.ShiftRegister(16) }},
		{"sram8x8", func() *gen.Design { return gen.SRAMArray(8, 8) }},
		{"switchgrid8", func() *gen.Design { return gen.SwitchGrid(8, 0) }},
	}
	lib := stdcell.All()
	var cells []cell
	for _, c := range cases {
		cells = append(cells,
			cell{name: c.name + "/adhoc", setup: func() func() (metrics, error) {
				d := c.build()
				mos := float64(d.TransistorCount())
				return func() (metrics, error) {
					rec, err := sprecog.Recognize(d.C, "VDD", "GND")
					if err != nil {
						return nil, fmt.Errorf("%s: %w", c.name, err)
					}
					named := 0
					for _, g := range rec.Gates {
						if g.Kind != "CMOS" {
							named++
						}
					}
					return metrics{
						"devices":     mos,
						"gates":       float64(len(rec.Gates)),
						"named-gates": float64(named),
						"coverage":    float64(rec.RecognizedDevices()) / mos,
					}, nil
				}
			}},
			cell{name: c.name + "/subgemini", setup: func() func() (metrics, error) {
				d := c.build()
				mos := float64(d.TransistorCount())
				return func() (metrics, error) {
					extracted, err := extract.Cells(d.C.Clone(), lib, extract.Options{Globals: rails})
					if err != nil {
						return nil, fmt.Errorf("%s: %w", c.name, err)
					}
					found, claimed := 0, 0
					for _, e := range extracted {
						found += e.Count
						claimed += e.Count * stdcell.Get(e.Cell).NumTransistors()
					}
					return metrics{
						"devices":  mos,
						"cells":    float64(found),
						"coverage": float64(claimed) / mos,
					}, nil
				}
			}},
		)
	}
	return cells
}()

// BenchmarkE4Results is the E4 results table.
func BenchmarkE4Results(b *testing.B) { benchCells(b, e4Cells) }

// BenchmarkE5Scaling is the E5 linearity figure, one row per series point.
func BenchmarkE5Scaling(b *testing.B) { benchCells(b, e5Cells) }

// BenchmarkE6Baseline is the E6 comparison with exhaustive search.
func BenchmarkE6Baseline(b *testing.B) { benchCells(b, e6Cells) }

// BenchmarkE7SpecialSignals is the E7 special-signal ablation.
func BenchmarkE7SpecialSignals(b *testing.B) { benchCells(b, e7Cells) }

// BenchmarkE8EarlyAbort is E8's absent pattern.
func BenchmarkE8EarlyAbort(b *testing.B) { benchCells(b, e8Cells) }

// BenchmarkE9Coverage is the E9 comparison with an ad hoc recognizer.
func BenchmarkE9Coverage(b *testing.B) { benchCells(b, e9Cells) }

// runs are one run of each cell of a table, by cell name.
type runs map[string]metrics

// runCells runs each cell once, except the long ones under -short, and
// records each run's metrics with its wall time as "ns".
func runCells(t *testing.T, cells []cell) runs {
	t.Helper()
	got := runs{}
	for _, c := range cells {
		if c.long && testing.Short() {
			continue
		}
		op := c.setup()
		t0 := time.Now()
		m, err := op()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m["ns"] = float64(time.Since(t0))
		got[c.name] = m
	}
	return got
}

// get returns the metrics of the named cell, which must have run.
func (r runs) get(t *testing.T, name string) metrics {
	t.Helper()
	m, ok := r[name]
	if !ok {
		t.Fatalf("cell %s did not run", name)
	}
	return m
}

// The tests below run every cell of E4–E9 once and assert the shapes
// EXPERIMENTS.md reports.  -short skips the E4 suite and the
// exhaustive-DFS cells.

// TestResultsTableCountsExact asserts that E4's counts equal the census,
// that |CV| covers them and that no workload is degenerate.
func TestResultsTableCountsExact(t *testing.T) {
	got := runCells(t, e4Cells)
	for _, c := range e4Cells {
		if c.long && testing.Short() {
			continue
		}
		m := got.get(t, c.name)
		if m["instances"] != m["expected"] {
			t.Errorf("%s: found %v, expected %v", c.name, m["instances"], m["expected"])
		}
		if m["instances"] > 0 && m["cv"] < m["instances"] {
			t.Errorf("%s: |CV| %v smaller than instance count %v (filter unsound)", c.name, m["cv"], m["instances"])
		}
		if m["devices"] <= 0 || m["nets"] <= 0 {
			t.Errorf("%s: degenerate workload", c.name)
		}
	}
}

// TestScalingSeriesShape asserts that matched devices grow along each E5
// series.
func TestScalingSeriesShape(t *testing.T) {
	got := runCells(t, e5Cells)
	for _, s := range e5Series {
		prev := 0.0
		for _, n := range s.params {
			name := fmt.Sprintf("%s/%d", s.name, n)
			m := got.get(t, name)
			if m["instances"] <= 0 || m["matched-devs"] <= prev {
				t.Errorf("%s: %v instances, %v matched devices after %v: the series does not grow", name, m["instances"], m["matched-devs"], prev)
			}
			prev = m["matched-devs"]
		}
	}
}

// TestBaselineComparisonShape asserts that E6's three matchers agree, and
// that exhaustive search takes millions of steps and at least 100×
// SubGemini's time on the switch grid.
func TestBaselineComparisonShape(t *testing.T) {
	got := runCells(t, e6Cells)
	for _, e := range e6Cells {
		c, ok := strings.CutSuffix(e.name, "/subgemini")
		if !ok {
			continue
		}
		m := got.get(t, c+"/subgemini")
		if pruned := got.get(t, c+"/prunedDFS"); pruned["instances"] != m["instances"] {
			t.Errorf("%s: SubGemini found %v, pruned DFS %v", c, m["instances"], pruned["instances"])
		}
		if plain, ok := got[c+"/plainDFS"]; ok && plain["cut-off"] == 0 && plain["instances"] != m["instances"] {
			t.Errorf("%s: SubGemini found %v, plain DFS %v", c, m["instances"], plain["instances"])
		}
	}
	if testing.Short() {
		return
	}
	grid, sub := got.get(t, "switchgrid12/plainDFS"), got.get(t, "switchgrid12/subgemini")
	if sub["instances"] != 0 {
		t.Errorf("switchgrid12: %v instances, want 0", sub["instances"])
	}
	if speedup := grid["ns"] / sub["ns"]; speedup < 100 {
		t.Errorf("switchgrid12: SubGemini is %.0f× faster than plain DFS, want ≥ 100×", speedup)
	}
	if grid["steps"] < 1_000_000 {
		t.Errorf("switchgrid12: plain DFS took %v steps, want millions on the fabric", grid["steps"])
	}
}

// TestAblationShape asserts that E7's rails-ordinary run finds the Fig. 7
// false inverters, and that E8 aborts with an empty CV.
func TestAblationShape(t *testing.T) {
	e7 := runCells(t, e7Cells)
	special, ordinary := e7.get(t, "INV-mult6/rails-special"), e7.get(t, "INV-mult6/rails-ordinary")
	if ordinary["instances"] <= special["instances"] {
		t.Errorf("INV/mult6: %v instances with the rails ordinary, %v special: want more false hits without special signals",
			ordinary["instances"], special["instances"])
	}

	if m := runCells(t, e8Cells).get(t, "SRAM6T-adder256"); m["instances"] != 0 || m["cv"] != 0 || m["candidates"] != 0 {
		t.Errorf("SRAM6T/adder256: %v instances, |CV| %v, %v candidates: want an early abort", m["instances"], m["cv"], m["candidates"])
	}
}

// TestExtractionCoverageShape asserts that E9's coverage collapses for the
// ad hoc method, but not for extraction, outside static logic.
func TestExtractionCoverageShape(t *testing.T) {
	got := runCells(t, e9Cells)
	cov := func(c, method string) float64 { return got.get(t, c+"/"+method)["coverage"] }
	if cov("mult4", "adhoc") < 0.999 || cov("mult4", "subgemini") < 0.999 {
		t.Errorf("mult4 coverage: ad hoc %.2f, SubGemini %.2f, want both 1.0", cov("mult4", "adhoc"), cov("mult4", "subgemini"))
	}
	for _, c := range []string{"counter16", "shiftreg16", "sram8x8"} {
		if a := cov(c, "adhoc"); a > 0.5 {
			t.Errorf("%s: ad hoc coverage %.2f, want < 0.5 (pass structures defeat it)", c, a)
		}
		if s := cov(c, "subgemini"); s < 0.9 {
			t.Errorf("%s: SubGemini coverage %.2f, want ≥ 0.9", c, s)
		}
	}
	if g := got.get(t, "switchgrid8/adhoc")["gates"]; g != 0 {
		t.Errorf("switchgrid8: the ad hoc method recognized %v gates, want 0", g)
	}
}

// BenchmarkParallel measures the FindParallel extension (not a paper
// experiment): candidate verification fanned out across workers on a large
// tiled design.
func BenchmarkParallel(b *testing.B) {
	d := gen.RippleAdder(2048)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			m, err := core.NewMatcher(d.C, core.Options{Globals: rails})
			if err != nil {
				b.Fatal(err)
			}
			pat := stdcell.FA.Pattern()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := m.FindParallel(pat, workers)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Instances) != 2048 {
					b.Fatalf("found %d", len(res.Instances))
				}
			}
		})
	}
}

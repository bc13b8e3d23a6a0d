package core_test

import (
	"testing"
	"testing/quick"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/gen/paperex"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// This file holds the differential tests between the production Phase II
// engine, which restricts each candidate's verification to the ball of
// vertices within the pattern's key-vertex eccentricity, and the
// whole-graph reference (core.FindPhase2RefForTest, phase2ref_test.go).
// The two must produce identical instances in identical order — the region
// engine's soundness argument (every possible image of a non-fixed pattern
// vertex lies inside the candidate's ball) plus its global-vid-tiebroken
// partition order are exactly what this checks.

// findOrdered runs Find and returns the instance strings in report order.
func findOrdered(t *testing.T, g, s *graph.Circuit, opts core.Options) []string {
	t.Helper()
	res, err := core.Find(g, s, opts)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	return instStrings(res)
}

// findWholeGraph is findOrdered on the whole-graph Phase II reference.
func findWholeGraph(t *testing.T, g, s *graph.Circuit, opts core.Options) []string {
	t.Helper()
	m, err := core.NewMatcher(g, opts)
	if err != nil {
		t.Fatalf("NewMatcher: %v", err)
	}
	res, err := core.FindPhase2RefForTest(m, s)
	if err != nil {
		t.Fatalf("reference Find: %v", err)
	}
	return instStrings(res)
}

func sameOrdered(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPhase2Differential asserts the engine and the reference agree —
// instances and their order — over a spread of fixed workloads covering global-seeded balls,
// guessing-heavy structures, port-only patterns, and the NonOverlapping
// consume path, then over random circuits.
func TestPhase2Differential(t *testing.T) {
	type workload struct {
		name string
		g    *graph.Circuit
		s    *graph.Circuit
		opts core.Options
	}
	cases := []workload{
		{"adder16-fa", gen.RippleAdder(16).C, stdcell.FA.Pattern(), core.Options{Globals: rails}},
		{"adder16-nand2", gen.RippleAdder(16).C, stdcell.NAND2.Pattern(), core.Options{Globals: rails}},
		{"mult4-fa", gen.ArrayMultiplier(4).C, stdcell.FA.Pattern(), core.Options{Globals: rails}},
		{"sram8x8-cell", gen.SRAMArray(8, 8).C, stdcell.SRAM6T.Pattern(), core.Options{Globals: rails}},
		{"shift8-dff", gen.ShiftRegister(8).C, stdcell.DFF.Pattern(), core.Options{Globals: rails}},
		{"rand400-nand2", gen.RandomLogic(400, 8, 11).C, stdcell.NAND2.Pattern(), core.Options{Globals: rails}},
		{"rand400-inv", gen.RandomLogic(400, 8, 11).C, stdcell.INV.Pattern(), core.Options{Globals: rails}},
		// No globals at all: the ball has no fixed seeds and every
		// candidate stalls into symmetric guessing.
		{"ring68-ring4", ring("g", 68), ring("s", 4), core.Options{}},
		// Port-only pattern against a switch grid: key on a device,
		// wildcard-free deep guessing.
		{"grid6-pass3", gen.SwitchGrid(6, 4).C, gen.PassChainPattern(3), core.Options{Globals: rails}},
		// NonOverlapping consumes devices between candidates, so later
		// balls must exclude them.
		{"adder16-fa-nonoverlap", gen.RippleAdder(16).C, stdcell.FA.Pattern(),
			core.Options{Globals: rails, Policy: core.NonOverlapping}},
		{"rand400-nand2-nonoverlap", gen.RandomLogic(400, 8, 11).C, stdcell.NAND2.Pattern(),
			core.Options{Globals: rails, Policy: core.NonOverlapping}},
	}
	for _, w := range cases {
		w := w
		t.Run(w.name, func(t *testing.T) {
			want := findWholeGraph(t, w.g, w.s, w.opts)
			got := findOrdered(t, w.g, w.s, w.opts)
			if !sameOrdered(want, got) {
				t.Errorf("reference found %d instances, region %d (or order differs)\nreference: %v\nregion: %v",
					len(want), len(got), want, got)
			}
		})
	}

	t.Run("random", func(t *testing.T) {
		cells := []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.FA, stdcell.DFF}
		prop := func(seed int64, gRaw, pick uint8) bool {
			gates := 10 + int(gRaw%40)
			cell := cells[int(pick)%len(cells)]
			g := gen.RandomLogic(gates, 6, seed).C
			want := findWholeGraph(t, g, cell.Pattern(), core.Options{Globals: rails})
			got := findOrdered(t, g, cell.Pattern(), core.Options{Globals: rails})
			if !sameOrdered(want, got) {
				t.Logf("seed=%d gates=%d cell=%s: reference %d instances, region %d",
					seed, gates, cell.Name, len(want), len(got))
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

// TestPhase2DifferentialParallel asserts agreement with the reference under
// FindParallel for several worker counts: per-worker region scratch from
// one shared view's pool, the shared type-label cache, and the canonical
// instance order must all hold up (exercised under -race in tier1).
func TestPhase2DifferentialParallel(t *testing.T) {
	g := gen.RandomLogic(600, 8, 23).C
	view := core.NewCSR(g)
	for _, cell := range []*stdcell.CellDef{stdcell.NAND2, stdcell.FA} {
		want := findWholeGraph(t, g, cell.Pattern(), core.Options{Globals: rails})
		for _, workers := range []int{1, 2, 4} {
			m, err := core.NewMatcher(g, core.Options{Globals: rails, CSR: view})
			if err != nil {
				t.Fatalf("NewMatcher: %v", err)
			}
			res, err := m.FindParallel(cell.Pattern(), workers)
			if err != nil {
				t.Fatalf("FindParallel: %v", err)
			}
			if got := instStrings(res); !sameOrdered(want, got) {
				t.Errorf("%s workers=%d: reference %d instances, region %d (or order differs)",
					cell.Name, workers, len(want), len(got))
			}
		}
	}
}

// TestPhase2DifferentialBind covers the pre-matched paths: bound ports and
// globals become fixed seeds at the head of every ball, and the engine must
// resolve them to the reference's instances.
func TestPhase2DifferentialBind(t *testing.T) {
	g := gen.RandomLogic(80, 5, 7).C
	var target string
	for _, n := range g.Nets {
		if !n.Global && n.Degree() >= 2 {
			target = n.Name
			break
		}
	}
	if target == "" {
		t.Fatal("no bindable net in the generated circuit")
	}
	opts := core.Options{Globals: rails, Bind: map[string]string{"A": target}}
	want := findWholeGraph(t, g, stdcell.INV.Pattern(), opts)
	got := findOrdered(t, g, stdcell.INV.Pattern(), opts)
	if !sameOrdered(want, got) {
		t.Errorf("bind: reference %v, region %v", want, got)
	}
}

// TestTraceTableMatchesReference holds the Table-1 rendering, which the
// region engine draws from region-local state, to the whole-graph
// reference's: per candidate the same verdict, pass count and pattern rows,
// and every main-graph row the region table shows carries the reference's
// label value, safe bit and matched bit.  Rows only the reference shows lie
// outside the candidate's ball (core.DiffTraceTablesForTest).
func TestTraceTableMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		g, s *graph.Circuit
		opts core.Options
	}{
		{"paper-example", paperex.PaperMain(), paperex.PaperPattern(), core.Options{}},
		{"adder16-fa", gen.RippleAdder(16).C, stdcell.FA.Pattern(), core.Options{Globals: rails}},
		{"adder16-fa-nonoverlap", gen.RippleAdder(16).C, stdcell.FA.Pattern(),
			core.Options{Globals: rails, Policy: core.NonOverlapping}},
		{"rand300-xor2", gen.RandomLogic(300, 8, 11).C, stdcell.XOR2.Pattern(), core.Options{Globals: rails}},
		{"grid6-pass3", gen.SwitchGrid(6, 4).C, gen.PassChainPattern(3), core.Options{Globals: rails}},
		{"ring68-ring4", ring("g", 68), ring("s", 4), core.Options{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := core.NewMatcher(c.g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			n, err := core.DiffTraceTablesForTest(m, c.s)
			if err != nil {
				t.Fatalf("after %d agreeing tables: %v", n, err)
			}
			if n == 0 {
				t.Fatal("no candidate table was compared")
			}
			t.Logf("%d candidate tables agree", n)
		})
	}
}

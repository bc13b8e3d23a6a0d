package core_test

import (
	"testing"
	"testing/quick"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
	"subgemini/internal/stdcell"
)

// This file holds the differential test between the production Phase I
// engine (CSR worklists) and the pointer-walking reference formulation in
// phase1ref_test.go.  Both must produce the identical key vertex, candidate
// vector, pass and prune counts, and early-abort verdict on arbitrary
// random circuits.

type p1DiffResult struct {
	key    label.VID
	cv     []label.VID
	passes int
	pruned int
	abort  bool
}

type phase1Runner func(*core.Matcher, *graph.Circuit) (label.VID, []label.VID, stats.Report, error)

// runPhase1 runs one Phase I implementation on a fresh matcher over g.
func runPhase1(t *testing.T, run phase1Runner, g, s *graph.Circuit, opts core.Options) p1DiffResult {
	t.Helper()
	m, err := core.NewMatcher(g, opts)
	if err != nil {
		t.Fatalf("NewMatcher: %v", err)
	}
	key, cv, rep, err := run(m, s)
	if err != nil {
		t.Fatalf("phase1: %v", err)
	}
	return p1DiffResult{key: key, cv: cv, passes: rep.Phase1Passes,
		pruned: rep.Phase1Pruned, abort: rep.EarlyAbort}
}

func diffEqual(a, b p1DiffResult) bool {
	if a.key != b.key || a.passes != b.passes || a.pruned != b.pruned ||
		a.abort != b.abort || len(a.cv) != len(b.cv) {
		return false
	}
	for i := range a.cv {
		if a.cv[i] != b.cv[i] {
			return false
		}
	}
	return true
}

// TestPhase1Differential asserts the engine and the reference agree on
// random circuits.
func TestPhase1Differential(t *testing.T) {
	cells := []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.FA, stdcell.DFF}
	prop := func(seed int64, gRaw, pick uint8) bool {
		gates := 10 + int(gRaw%40)
		cell := cells[int(pick)%len(cells)]
		opts := core.Options{Globals: rails}
		want := runPhase1(t, core.RunPhase1RefForTest, gen.RandomLogic(gates, 6, seed).C, cell.Pattern(), opts)
		got := runPhase1(t, core.RunPhase1ForTest, gen.RandomLogic(gates, 6, seed).C, cell.Pattern(), opts)
		if !diffEqual(want, got) {
			t.Logf("seed=%d gates=%d cell=%s: reference(key=%d |cv|=%d passes=%d pruned=%d abort=%v) vs csr(key=%d |cv|=%d passes=%d pruned=%d abort=%v)",
				seed, gates, cell.Name,
				want.key, len(want.cv), want.passes, want.pruned, want.abort,
				got.key, len(got.cv), got.passes, got.pruned, got.abort)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPhase1DifferentialBind covers the pre-matched paths (globals plus a
// bound port) where main-graph vertices start out fixed and must stay off
// the worklists.
func TestPhase1DifferentialBind(t *testing.T) {
	target := gen.RandomLogic(30, 5, 7).C.Nets[10].Name
	opts := core.Options{Globals: rails, Bind: map[string]string{"A": target}}
	want := runPhase1(t, core.RunPhase1RefForTest, gen.RandomLogic(30, 5, 7).C, stdcell.INV.Pattern(), opts)
	got := runPhase1(t, core.RunPhase1ForTest, gen.RandomLogic(30, 5, 7).C, stdcell.INV.Pattern(), opts)
	if !diffEqual(want, got) {
		t.Errorf("csr(key=%d |cv|=%d passes=%d pruned=%d) vs reference(key=%d |cv|=%d passes=%d pruned=%d)",
			got.key, len(got.cv), got.passes, got.pruned,
			want.key, len(want.cv), want.passes, want.pruned)
	}
	if len(want.cv) == 0 {
		t.Error("bound INV produced an empty candidate vector; the case no longer exercises the bind path")
	}
}

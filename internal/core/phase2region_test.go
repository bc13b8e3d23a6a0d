package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/csr"
	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// TestRegionGuessAllocsFlat pins the allocation behavior of the region
// engine's guess path: snapshots and guess candidate lists are recycled by
// depth through the view's scratch pool, so once the pools are warm a
// backtrack-heavy run performs no per-guess allocations.  The baseline is
// the same warmed run with guessing disabled (guess depth bound 0), which
// finds the same instance and shares the per-run overhead (pattern
// construction, scratch growth, result assembly); the guessing run may
// exceed it by far less than one allocation per guess.  The 40-device
// chain keeps the run above 60 guesses with the admit filter on (75
// guesses over 42 candidates, 3 of them filtered).
func TestRegionGuessAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations; the gap assertion only holds without -race")
	}
	g, s := gen.SwitchGrid(32, 40).C, gen.PassChainPattern(40)
	m, err := core.NewMatcher(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Find(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Guesses < 60 || res.Report.Backtracks < 30 {
		t.Fatalf("workload is not backtrack-heavy: guesses=%d backtracks=%d",
			res.Report.Guesses, res.Report.Backtracks)
	}
	find := func() *core.Result {
		r, err := m.Find(s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	guessing := testing.AllocsPerRun(5, func() { find() })

	restore := core.SetGuessDepthForTest(0)
	defer restore()
	if r := find(); r.Report.Guesses != 0 || len(r.Instances) != len(res.Instances) {
		t.Fatalf("guess-free baseline made %d guesses and found %d instances, want 0 and %d",
			r.Report.Guesses, len(r.Instances), len(res.Instances))
	}
	baseline := testing.AllocsPerRun(5, func() { find() })

	if guessing-baseline > float64(res.Report.Guesses)/2 {
		t.Errorf("guess path allocates: %.0f allocations with %d guesses, %.0f without guessing",
			guessing, res.Report.Guesses, baseline)
	}
	// Generous absolute ceiling so a regression that adds per-pass or
	// per-candidate allocations fails even though it hits both runs.
	if guessing > 250 {
		t.Errorf("warmed run allocates %.0f times, want <= 250", guessing)
	}
}

// TestRegionReportMetrics checks the region engine's Report
// instrumentation: radius from the key vertex and per-candidate ball sizes
// accumulated.
func TestRegionReportMetrics(t *testing.T) {
	g := gen.RippleAdder(16).C
	res, err := core.Find(g, stdcell.FA.Pattern(), core.Options{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	rep := &res.Report
	if rep.RegionRadius <= 0 {
		t.Errorf("RegionRadius = %d, want > 0", rep.RegionRadius)
	}
	if rep.RegionMaxSize <= 0 || rep.RegionMaxSize > g.NumDevices()+g.NumNets() {
		t.Errorf("RegionMaxSize = %d, want in 1..|G|=%d", rep.RegionMaxSize, g.NumDevices()+g.NumNets())
	}
	if rep.RegionBallSum < rep.Candidates {
		t.Errorf("RegionBallSum = %d < Candidates = %d; every examined candidate extracts a non-empty ball",
			rep.RegionBallSum, rep.Candidates)
	}
	if avg := rep.RegionAvgSize(); avg <= 0 || avg > float64(rep.RegionMaxSize) {
		t.Errorf("RegionAvgSize() = %v, want in (0, %d]", avg, rep.RegionMaxSize)
	}
}

// TestRegionScratchReuse runs many matches through one scratch pool,
// interleaving views of different sizes so the pool's size check discards
// stale scratch, and confirms results stay correct throughout — the
// clean-state invariant (local all -1, mark <= markID) held after every
// close.  A view patched from another shares its pool, so the two views
// here are an adder and the same adder with one more device and two more
// nets, patched from the first.
func TestRegionScratchReuse(t *testing.T) {
	small := gen.RippleAdder(16).C
	smallView := core.NewCSR(small)
	big := small.Clone()
	step, err := delta.Apply(big, 2, []delta.Op{{Op: delta.OpAddDevice, Name: "xtra", Type: "res",
		Classes: []int{0, 0}, Nets: []string{"e1", "e2"}}})
	if err != nil {
		t.Fatal(err)
	}
	bigView, _ := csr.Patch(smallView, big, csr.Remap{Dev: step.DevOld2New, Net: step.NetOld2New}, step.DirtyDevs, step.DirtyNets)
	if bigView.Scratch != smallView.Scratch {
		t.Fatal("the patched view does not share its parent's scratch pool")
	}
	want := len(findOrdered(t, small, stdcell.FA.Pattern(), core.Options{Globals: rails}))
	if want == 0 {
		t.Fatal("no FA instances in the adder")
	}
	for i := 0; i < 6; i++ {
		g, view := small, smallView
		if i%2 == 1 {
			g, view = big, bigView
		}
		res, err := core.Find(g, stdcell.FA.Pattern(), core.Options{Globals: rails, CSR: view})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Instances) != want {
			t.Fatalf("iteration %d found %d instances, want %d (stale pooled scratch?)",
				i, len(res.Instances), want)
		}
	}
}

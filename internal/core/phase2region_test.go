package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// TestRegionGuessAllocsFlat pins the allocation behavior of the region
// engine's guess path: snapshots and guess candidate lists are recycled by
// depth through the ScratchPool, so once the pools are warm a
// backtrack-heavy run performs no per-guess allocations.  The whole-graph
// engine copies a fresh candidate list on every guess, so its warmed
// allocation count exceeds the region engine's by at least one per guess —
// asserting the gap proves the region guess path is allocation-free without
// pinning a brittle absolute count.
func TestRegionGuessAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations; the gap assertion only holds without -race")
	}
	g, s := gen.SwitchGrid(16, 8).C, gen.PassChainPattern(8)
	var pool core.ScratchPool
	m, err := core.NewMatcher(g, core.Options{Scratch: &pool})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Find(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Guesses < 15 || res.Report.Backtracks < 14 {
		t.Fatalf("workload is not backtrack-heavy: guesses=%d backtracks=%d",
			res.Report.Guesses, res.Report.Backtracks)
	}
	region := testing.AllocsPerRun(5, func() {
		if _, err := m.Find(s); err != nil {
			t.Fatal(err)
		}
	})

	ml, err := core.NewMatcher(g, core.Options{Scratch: &pool})
	if err != nil {
		t.Fatal(err)
	}
	core.UseWholeGraphPhase2ForTest(ml)
	if _, err := ml.Find(s); err != nil {
		t.Fatal(err)
	}
	legacy := testing.AllocsPerRun(5, func() {
		if _, err := ml.Find(s); err != nil {
			t.Fatal(err)
		}
	})

	// Both engines share the per-run overhead (pattern construction, result
	// assembly); the legacy engine adds at least one allocation per guess.
	if region+float64(res.Report.Guesses)/2 > legacy {
		t.Errorf("region engine allocates on the guess path: region=%.0f legacy=%.0f guesses=%d",
			region, legacy, res.Report.Guesses)
	}
	// Generous absolute ceiling so a regression that adds per-pass or
	// per-candidate allocations fails even if it hits both engines.
	if region > 250 {
		t.Errorf("warmed region run allocates %.0f times, want <= 250", region)
	}
}

// TestRegionReportMetrics checks the region engine's Report
// instrumentation: radius from the key vertex, per-candidate ball sizes
// accumulated, and all three fields zero when the whole-graph engine ran.
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

	ml, err := core.NewMatcher(g, core.Options{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	core.UseWholeGraphPhase2ForTest(ml)
	legacy, err := ml.Find(stdcell.FA.Pattern())
	if err != nil {
		t.Fatal(err)
	}
	lr := &legacy.Report
	if lr.RegionRadius != 0 || lr.RegionMaxSize != 0 || lr.RegionBallSum != 0 {
		t.Errorf("whole-graph run reports region metrics: radius=%d max=%d sum=%d",
			lr.RegionRadius, lr.RegionMaxSize, lr.RegionBallSum)
	}
}

// TestRegionScratchReuse runs many matches through one pool, interleaving
// circuits of different sizes so the pool's size check discards stale
// scratch, and confirms results stay correct throughout — the clean-state
// invariant (local all -1, mark <= markID) held after every close.
func TestRegionScratchReuse(t *testing.T) {
	var pool core.ScratchPool
	big, small := gen.RippleAdder(16).C, gen.RippleAdder(4).C
	wantBig, wantSmall := -1, -1
	for i := 0; i < 6; i++ {
		g := big
		want := &wantBig
		if i%2 == 1 {
			g = small
			want = &wantSmall
		}
		res, err := core.Find(g, stdcell.FA.Pattern(), core.Options{Globals: rails, Scratch: &pool})
		if err != nil {
			t.Fatal(err)
		}
		if *want < 0 {
			*want = len(res.Instances)
			if *want == 0 {
				t.Fatalf("iteration %d found no instances", i)
			}
		} else if len(res.Instances) != *want {
			t.Fatalf("iteration %d found %d instances, want %d (stale pooled scratch?)",
				i, len(res.Instances), *want)
		}
	}
}

package stats

import (
	"sync"
	"testing"
	"time"
)

func TestAggregateSums(t *testing.T) {
	var a Aggregate
	a.Add(&Report{
		Phase1Passes: 3, Phase1Duration: 2 * time.Millisecond, CVSize: 5,
		Candidates: 5, Filtered: 3, Phase2Passes: 7, Guesses: 2, Backtracks: 1,
		GuessLimitHits: 1, VerifyCalls: 4, Phase2Duration: 3 * time.Millisecond,
		Instances: 4, MatchedDevices: 16,
		KeyVertex: "n1", EarlyAbort: false,
	})
	a.Add(&Report{
		Phase1Passes: 1, Phase1Duration: 1 * time.Millisecond, CVSize: 0,
		EarlyAbort: true,
	})
	s := a.Snapshot()
	if s.Runs != 2 {
		t.Errorf("Runs = %d, want 2", s.Runs)
	}
	if s.EarlyAborts != 1 {
		t.Errorf("EarlyAborts = %d, want 1", s.EarlyAborts)
	}
	if s.Sum.Phase1Passes != 4 || s.Sum.Phase2Passes != 7 || s.Sum.Guesses != 2 ||
		s.Sum.Backtracks != 1 || s.Sum.GuessLimitHits != 1 || s.Sum.VerifyCalls != 4 || s.Sum.Candidates != 5 ||
		s.Sum.Filtered != 3 || s.Sum.CVSize != 5 || s.Sum.Instances != 4 || s.Sum.MatchedDevices != 16 {
		t.Errorf("bad counter sums: %+v", s.Sum)
	}
	if s.Sum.Phase1Duration != 3*time.Millisecond || s.Sum.Phase2Duration != 3*time.Millisecond {
		t.Errorf("bad duration sums: t1=%v t2=%v", s.Sum.Phase1Duration, s.Sum.Phase2Duration)
	}
	if s.Sum.Total() != 6*time.Millisecond {
		t.Errorf("Total = %v, want 6ms", s.Sum.Total())
	}
	// Identification fields do not aggregate.
	if s.Sum.KeyVertex != "" || s.Sum.KeyIsDevice || s.Sum.EarlyAbort {
		t.Errorf("identification fields leaked into the sum: %+v", s.Sum)
	}
}

func TestAggregateNilAndReset(t *testing.T) {
	var a Aggregate
	a.Add(nil)
	if s := a.Snapshot(); s.Runs != 0 {
		t.Errorf("nil Add counted as a run: %+v", s)
	}
	a.Add(&Report{Instances: 1})
	a.Reset()
	if s := a.Snapshot(); s.Runs != 0 || s.Sum.Instances != 0 {
		t.Errorf("Reset left state behind: %+v", s)
	}
}

// TestAggregatePatternDimension: AddPattern keeps per-pattern attribution
// while still feeding the grand totals, so merged report streams (library
// sweeps) remain attributable.
func TestAggregatePatternDimension(t *testing.T) {
	var a Aggregate
	a.AddPattern("NAND2", &Report{Instances: 3, Candidates: 5, Filtered: 2})
	a.AddPattern("NAND2", &Report{Instances: 1, Candidates: 2, EarlyAbort: true})
	a.AddPattern("INV", &Report{Instances: 7, Candidates: 9})
	a.Add(&Report{Instances: 100}) // anonymous: totals only

	s := a.Snapshot()
	if s.Runs != 4 || s.Sum.Instances != 111 || s.Sum.Candidates != 16 {
		t.Errorf("grand totals wrong: %+v", s)
	}
	ps := a.Patterns()
	if len(ps) != 2 || ps[0].Pattern != "INV" || ps[1].Pattern != "NAND2" {
		t.Fatalf("Patterns() = %+v, want INV then NAND2", ps)
	}
	if ps[0].Runs != 1 || ps[0].Sum.Instances != 7 {
		t.Errorf("INV totals wrong: %+v", ps[0])
	}
	if ps[1].Runs != 2 || ps[1].Sum.Instances != 4 || ps[1].Sum.Filtered != 2 || ps[1].EarlyAborts != 1 {
		t.Errorf("NAND2 totals wrong: %+v", ps[1])
	}

	a.Reset()
	if len(a.Patterns()) != 0 {
		t.Error("Reset left per-pattern totals behind")
	}
}

// TestAggregateConcurrent exercises the lock under the race detector.
func TestAggregateConcurrent(t *testing.T) {
	var a Aggregate
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Add(&Report{Instances: 1, MatchedDevices: 2})
				_ = a.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := a.Snapshot()
	if s.Runs != 800 || s.Sum.Instances != 800 || s.Sum.MatchedDevices != 1600 {
		t.Errorf("concurrent totals wrong: %+v", s)
	}
}

package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/graph"
)

// ring builds a closed ring of n identical 2-pin devices: net0 - dev0 -
// net1 - dev1 - ... - dev(n-1) - net0.  A ring has no ports and no globals,
// so Phase I never corrupts anything and stops on the stability guard, and
// its perfect symmetry is the pathological Phase II case: every candidate
// spreads symmetric size-2 partitions for ~n/2 passes before the
// wrap-around refutes it, so a single candidate does O(n²) work with no
// intermediate failure a between-candidate poll could catch.
func ring(name string, n int) *graph.Circuit {
	c := graph.New(name)
	cls := []graph.TermClass{0, 0}
	nets := make([]*graph.Net, n)
	for i := range nets {
		nets[i] = c.AddNet(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		c.MustAddDevice(fmt.Sprintf("d%d", i), "res", cls, []*graph.Net{nets[i], nets[(i+1)%n]})
	}
	return c
}

// TestCancelInsideSolve is the deterministic regression test for polling
// Options.Cancel inside the Phase II solve recursion.  The hook fires on
// poll 40; with in-solve polling each candidate accounts for several polls
// (one between candidates plus one every p2CancelStride passes), so the
// run is cut a handful of candidates in.  The old between-candidates-only
// polling would have burned one poll per candidate and reported ~35
// examined candidates instead.
func TestCancelInsideSolve(t *testing.T) {
	errStop := errors.New("stop")
	g, s := ring("g", 516), ring("s", 512)
	polls := 0
	res, err := core.Find(g, s, core.Options{
		Cancel: func() error {
			polls++
			if polls >= 40 {
				return errStop
			}
			return nil
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("Find returned %v, want %v", err, errStop)
	}
	if res == nil {
		t.Fatal("cancelled Find returned a nil result; want a partial report")
	}
	if res.Report.CancelledAt != "phase2" {
		t.Errorf("Report.CancelledAt = %q, want \"phase2\"", res.Report.CancelledAt)
	}
	// Each ring candidate runs ~256 solve passes = ~8 in-solve polls, so a
	// 40-poll budget cannot outlive candidate 8; without in-solve polling
	// the budget lasts ~35 candidates.
	if res.Report.Candidates == 0 || res.Report.Candidates > 8 {
		t.Errorf("run was cut after %d candidates, want 1..8 (in-solve polling)", res.Report.Candidates)
	}
}

// TestCancelPathologicalDeadline: a deadline context cuts a ring match
// whose single first candidate alone takes far longer than the deadline.
// Before in-solve polling this returned only after that candidate finished.
// The ring pattern's eccentricity spans the whole main graph, so the
// Phase II balls degenerate to O(|G|) and the solve strides carry the
// polling.
func TestCancelPathologicalDeadline(t *testing.T) {
	t.Run("region", func(t *testing.T) {
		g, s := ring("g", 4004), ring("s", 4000)
		const deadline = 40 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		defer cancel()
		start := time.Now()
		res, err := core.Find(g, s, core.Options{Cancel: ctx.Err})
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Find returned %v, want context.DeadlineExceeded", err)
		}
		if res == nil || res.Report.CancelledAt == "" {
			t.Fatalf("cancelled Find returned res=%v, want a partial report with CancelledAt set", res)
		}
		// The generous bound absorbs CI noise; the point is that the run
		// does not outlive the deadline by a whole O(n²) candidate
		// (hundreds of ms).
		if elapsed > 10*deadline {
			t.Errorf("cancelled run returned after %v, want well under %v", elapsed, 10*deadline)
		}
	})
}

// TestCancelInsideRegionExtract: with the extraction cancellation block
// forced down, a hook that fires only after more polls than a few
// candidates' solves could account for is still honored during the first
// candidate's ball extraction — proof that polling happens inside the
// region BFS, not just in solve strides.  The ring pattern's radius covers
// most of the main ring, so one extraction visits ~1600 vertices = ~200
// polls at block size 8, while solve polling alone would take several
// candidates to reach 60 polls.
func TestCancelInsideRegionExtract(t *testing.T) {
	restore := core.SetRegionCancelBlock(8)
	defer restore()
	errStop := errors.New("stop")
	g, s := ring("g", 1000), ring("s", 800)
	polls := 0
	res, err := core.Find(g, s, core.Options{
		Cancel: func() error {
			polls++
			if polls >= 60 {
				return errStop
			}
			return nil
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("Find returned %v, want %v", err, errStop)
	}
	if res == nil || res.Report.CancelledAt != "phase2" {
		t.Fatalf("cancelled Find returned res=%v, want CancelledAt=\"phase2\"", res)
	}
	if res.Report.Candidates == 0 || res.Report.Candidates > 2 {
		t.Errorf("run was cut after %d candidates, want 1..2 (in-extraction polling)", res.Report.Candidates)
	}
}

// TestCancelInsidePhase1Pass: with the cancellation block size forced down,
// a hook that fires only after more polls than Phase I has rounds is still
// honored during Phase I — proof that polling happens inside a relabeling
// pass, not just between passes.  The ring pattern stabilizes after ~2
// rounds, so without in-pass polling the hook would survive Phase I and
// the run would be cut in Phase II instead.
func TestCancelInsidePhase1Pass(t *testing.T) {
	restore := core.SetP1CancelBlock(64)
	defer restore()
	errStop := errors.New("stop")
	g, s := ring("g", 1000), ring("s", 64)
	polls := 0
	res, err := core.Find(g, s, core.Options{
		Cancel: func() error {
			polls++
			if polls >= 8 {
				return errStop
			}
			return nil
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("Find returned %v, want %v", err, errStop)
	}
	if res == nil || res.Report.CancelledAt != "phase1" {
		t.Fatalf("cancelled Find returned res=%v, want CancelledAt=\"phase1\" (in-pass polling)", res)
	}
}

// TestCancelDeepFindParallel: a deadline cut inside a worker's solve
// recursion surfaces from FindParallel with the phase recorded, even
// though the between-candidate poll may never see the error.
func TestCancelDeepFindParallel(t *testing.T) {
	g, s := ring("g", 1004), ring("s", 1000)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	m, err := core.NewMatcher(g, core.Options{Cancel: ctx.Err})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.FindParallel(s, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FindParallel returned %v, want context.DeadlineExceeded", err)
	}
	if res == nil || res.Report.CancelledAt == "" {
		t.Fatalf("cancelled FindParallel returned res=%v, want a partial report with CancelledAt set", res)
	}
}

// TestRingUncancelled pins the ring workload itself: without a hook the
// search must terminate with no instances (the rings have different
// sizes), proving the pathological case is pathological only in cost.
func TestRingUncancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("O(n³) symmetric-ring search")
	}
	g, s := ring("g", 68), ring("s", 64)
	res, err := core.Find(g, s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 0 {
		t.Fatalf("found %d instances of a 64-ring in a 68-ring, want 0", len(res.Instances))
	}
	if res.Report.CancelledAt != "" {
		t.Fatalf("uncancelled run has CancelledAt=%q", res.Report.CancelledAt)
	}
}

package core

import (
	"errors"
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/trace"
)

// TestFindEmitsTraceEvents runs the paper's worked example with a collector
// installed and checks the event stream end to end: run boundaries, one
// event per Phase I relabeling pass, the candidate-vector selection, and
// one event per Phase II candidate with the N13 decoy rejected and the
// true image N14 matched.
func TestFindEmitsTraceEvents(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	col := trace.NewCollector(0)
	res, err := Find(g, s, Options{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	if res.Report.CandidatesMatched != 1 {
		t.Errorf("Report.CandidatesMatched = %d, want 1", res.Report.CandidatesMatched)
	}

	events := col.Events()
	if len(events) == 0 {
		t.Fatal("no events collected")
	}
	first, last := events[0], events[len(events)-1]
	if first.Kind != trace.KindRunStart || first.Circuit != "paperG" || first.Pattern != "paperS" ||
		first.Devices != 7 || first.Nets != 9 {
		t.Errorf("run_start = %+v, want paperS in paperG with 7 devices, 9 nets", first)
	}
	if last.Kind != trace.KindRunEnd || last.Instances != 1 || last.Candidates != 2 {
		t.Errorf("run_end = %+v, want 1 instance from 2 candidates", last)
	}

	var passes, cvs int
	candidates := map[string]bool{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindPhase1Pass:
			passes++
			if e.Side != trace.SideNets && e.Side != trace.SideDevices {
				t.Errorf("phase1_pass with side %q", e.Side)
			}
			if e.PatternValid+e.PatternCorrupt == 0 {
				t.Errorf("phase1_pass %+v counted no pattern vertices", e)
			}
		case trace.KindCandidateVector:
			cvs++
			if e.KeyVertex != "N4" || e.KeyIsDevice || e.CVSize != 2 {
				t.Errorf("candidate_vector = %+v, want key N4 (net), |CV| = 2", e)
			}
		case trace.KindPhase2Candidate:
			candidates[e.Candidate] = e.Matched
			if e.Passes <= 0 {
				t.Errorf("candidate %s traced %d passes, want > 0", e.Candidate, e.Passes)
			}
			if e.DurationNS <= 0 {
				t.Errorf("candidate %s traced duration %d ns, want > 0", e.Candidate, e.DurationNS)
			}
		}
	}
	// Paper Fig. 2: nets pass 1 leaves only N4 valid, devices pass 1
	// corrupts everything, so relabeling stops after exactly two passes.
	if passes != 2 {
		t.Errorf("traced %d phase1_pass events, want 2", passes)
	}
	if cvs != 1 {
		t.Errorf("traced %d candidate_vector events, want 1", cvs)
	}
	if len(candidates) != 2 || candidates["N13"] || !candidates["N14"] {
		t.Errorf("candidate outcomes = %v, want N13 rejected and N14 matched", candidates)
	}
}

// TestFindParallelEmitsTraceEvents checks that the concurrent matcher
// produces the same run-level events and per-candidate outcomes as Find
// (candidate events may interleave in any order).
func TestFindParallelEmitsTraceEvents(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	col := trace.NewCollector(0)
	m, err := NewMatcher(g, Options{Tracer: col})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.FindParallel(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	if res.Report.CandidatesMatched != 1 {
		t.Errorf("Report.CandidatesMatched = %d, want 1", res.Report.CandidatesMatched)
	}
	candidates := map[string]bool{}
	var ends int
	for _, e := range col.Events() {
		switch e.Kind {
		case trace.KindPhase2Candidate:
			candidates[e.Candidate] = e.Matched
		case trace.KindRunEnd:
			ends++
			if e.Instances != 1 || e.Candidates != 2 {
				t.Errorf("run_end = %+v, want 1 instance from 2 candidates", e)
			}
		}
	}
	if ends != 1 {
		t.Errorf("traced %d run_end events, want 1", ends)
	}
	if len(candidates) != 2 || candidates["N13"] || !candidates["N14"] {
		t.Errorf("candidate outcomes = %v, want N13 rejected and N14 matched", candidates)
	}
}

// TestNopTracerNoAllocs pins the overhead contract: with the no-op sink
// installed, the per-pass Phase I emission path performs zero allocations
// (the partition count reuses the scratch slice, and the flat Event struct
// never escapes to the heap).
func TestNopTracerNoAllocs(t *testing.T) {
	g, s := paperMainGraph(), paperSubgraph()
	m, err := NewMatcher(g, Options{Tracer: trace.Nop{}})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := m.prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	p1 := newPhase1(m, pat, &res.Report)
	if _, _, err := p1.run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		p1.emitPass(trace.Nop{}, 1, trace.SideNets)
		p1.emitPass(trace.Nop{}, 1, trace.SideDevices)
	})
	if allocs != 0 {
		t.Errorf("emitPass with the no-op tracer allocates %.1f times per pass, want 0", allocs)
	}
}

// absentPattern builds a pattern whose device type does not occur in the
// paper's main graph, so Phase I's very first consistency check proves no
// instance exists and the candidate vector comes out empty.
func absentPattern() *graph.Circuit {
	s := graph.New("absent")
	a, b := s.AddNet("A"), s.AddNet("B")
	s.MustAddDevice("Q1", "bjt", mos3, []*graph.Net{a, b, a})
	return s
}

// TestFindCancelEmptyCV is the regression test for the Phase I polling fix:
// a run that aborts inside Phase I (empty candidate vector) must still
// honor Options.Cancel.  Before the fix the hook was only polled between
// Phase II candidates, so such a run returned a nil error even under an
// already-cancelled hook.
func TestFindCancelEmptyCV(t *testing.T) {
	errStop := errors.New("stop")
	_, err := Find(paperMainGraph(), absentPattern(), Options{
		Cancel: func() error { return errStop },
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("Find returned %v, want %v (Cancel must be polled during Phase I)", err, errStop)
	}

	m, err := NewMatcher(paperMainGraph(), Options{Cancel: func() error { return errStop }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FindParallel(absentPattern(), 2); !errors.Is(err, errStop) {
		t.Fatalf("FindParallel returned %v, want %v", err, errStop)
	}
}

// TestFindCancelDuringPhase1 cancels on the second poll — the first
// relabeling round — and checks via the tracer that the run aborted before
// any Phase II candidate was examined.
func TestFindCancelDuringPhase1(t *testing.T) {
	errStop := errors.New("stop")
	col := trace.NewCollector(0)
	polls := 0
	_, err := Find(paperMainGraph(), paperSubgraph(), Options{
		Tracer: col,
		Cancel: func() error {
			polls++
			if polls >= 2 {
				return errStop
			}
			return nil
		},
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("Find returned %v, want %v", err, errStop)
	}
	for _, e := range col.Events() {
		if e.Kind == trace.KindPhase2Candidate {
			t.Fatalf("candidate %s examined after a Phase I cancellation", e.Candidate)
		}
	}
}

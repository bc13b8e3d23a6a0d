package core

import (
	"errors"
	"reflect"
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/obs"
)

// traced runs one match under a fresh trace and returns the trace's spans.
func traced(t *testing.T, run func(opts Options) (*Result, error)) (*Result, []obs.SpanJSON) {
	t.Helper()
	tl := obs.NewTrace("test")
	res, err := run(Options{Observe: tl.Scope(obs.NoSpan)})
	if err != nil {
		t.Fatal(err)
	}
	return res, tl.JSON().Spans
}

// childAttrs returns the names and attributes of the children of span
// parent that have the given kind, in emission order.
func childAttrs(spans []obs.SpanJSON, parent int, kind string) (names []string, attrs []map[string]string) {
	for _, sp := range spans {
		if int(sp.Parent) == parent && sp.Kind == kind {
			names = append(names, sp.Name)
			attrs = append(attrs, sp.Attrs)
		}
	}
	return names, attrs
}

// spanIndex returns the index of the first span of the given kind, or -1.
func spanIndex(spans []obs.SpanJSON, kind string) int {
	for i, sp := range spans {
		if sp.Kind == kind {
			return i
		}
	}
	return -1
}

// TestFindEmitsTraceEvents runs the paper's worked example under a trace
// and checks its algorithm detail end to end: the run attributes, one pass
// span per Phase I half-pass (nets, then devices, with the counts
// ALGORITHM.md shows), the key vertex and candidate vector, and one
// candidate span per Phase II candidate — the decoy N13 refuted after 2
// passes, the true image N14 matched after 7.
func TestFindEmitsTraceEvents(t *testing.T) {
	res, spans := traced(t, func(opts Options) (*Result, error) {
		return Find(paperMainGraph(), paperSubgraph(), opts)
	})
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	if res.Report.CandidatesMatched != 1 {
		t.Errorf("Report.CandidatesMatched = %d, want 1", res.Report.CandidatesMatched)
	}

	p1, p2 := spanIndex(spans, obs.KindPhase1), spanIndex(spans, obs.KindPhase2)
	if p1 < 0 || p2 < 0 {
		t.Fatalf("trace lacks a phase span: %+v", spans)
	}
	a := spans[p1].Attrs
	for k, want := range map[string]string{
		"circuit": "paperG", "devices": "7", "nets": "9",
		"key": "N4", "key_is_device": "false", "cv_size": "2",
	} {
		if a[k] != want {
			t.Errorf("phase1 %s = %q, want %q", k, a[k], want)
		}
	}
	if spans[p1].Name != "paperS" {
		t.Errorf("phase1 span names %q, want the pattern paperS", spans[p1].Name)
	}
	if b := spans[p2].Attrs; b["candidates"] != "2" || b["instances"] != "1" {
		t.Errorf("phase2 attrs = %v, want 2 candidates, 1 instance", b)
	}

	// Paper Fig. 2: nets pass 1 leaves only N4 valid, devices pass 1
	// corrupts everything, so relabeling stops after exactly two passes.
	_, passes := childAttrs(spans, p1, obs.KindPass)
	wantPasses := []map[string]string{
		{"pass": "1", "side": "nets", "s_valid": "1", "s_corrupt": "5", "s_partitions": "1", "g_active": "2", "g_pruned": "7"},
		{"pass": "1", "side": "devices", "s_valid": "0", "s_corrupt": "4", "s_partitions": "0", "g_active": "7", "g_pruned": "0"},
	}
	if !reflect.DeepEqual(passes, wantPasses) {
		t.Errorf("pass spans = %v\nwant %v", passes, wantPasses)
	}

	names, cands := childAttrs(spans, p2, obs.KindCandidate)
	if !reflect.DeepEqual(names, []string{"N13", "N14"}) {
		t.Fatalf("candidate spans %v, want N13 then N14", names)
	}
	for i, want := range []map[string]string{
		{"matched": "false", "passes": "2", "guesses": "0", "backtracks": "0", "guess_limited": "false"},
		{"matched": "true", "passes": "7", "guesses": "0", "backtracks": "0", "guess_limited": "false"},
	} {
		for k, v := range want {
			if cands[i][k] != v {
				t.Errorf("candidate %s %s = %q, want %q", names[i], k, cands[i][k], v)
			}
		}
		if cands[i]["ball"] == "" || cands[i]["ball"] == "0" {
			t.Errorf("candidate %s has no ball size: %v", names[i], cands[i])
		}
	}
	for _, sp := range spans {
		if sp.Open {
			t.Errorf("%s span %q left open", sp.Kind, sp.Name)
		}
	}
}

// stripTimes drops the timing of each span, leaving what a run decides.
func stripTimes(spans []obs.SpanJSON) []obs.SpanJSON {
	out := append([]obs.SpanJSON(nil), spans...)
	for i := range out {
		out[i].StartUS, out[i].DurUS = 0, 0
	}
	return out
}

// TestFindParallelEmitsTraceEvents checks that FindParallel and
// FindIncremental under a trace fall back to Find and record exactly its
// spans, so the candidate spans keep Find's order.
func TestFindParallelEmitsTraceEvents(t *testing.T) {
	_, want := traced(t, func(opts Options) (*Result, error) {
		return Find(paperMainGraph(), paperSubgraph(), opts)
	})
	par, got := traced(t, func(opts Options) (*Result, error) {
		m, err := NewMatcher(paperMainGraph(), opts)
		if err != nil {
			return nil, err
		}
		return m.FindParallel(paperSubgraph(), 2)
	})
	if len(par.Instances) != 1 || par.Report.CandidatesMatched != 1 {
		t.Errorf("FindParallel found %d instances from %d matched candidates, want 1 and 1",
			len(par.Instances), par.Report.CandidatesMatched)
	}
	if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
		t.Errorf("FindParallel trace\n%+v\nwant Find's\n%+v", got, want)
	}

	var st *IncrementalState
	inc, got := traced(t, func(opts Options) (*Result, error) {
		m, err := NewMatcher(paperMainGraph(), opts)
		if err != nil {
			return nil, err
		}
		res, s, err := m.FindIncremental(paperSubgraph(), nil, nil)
		st = s
		return res, err
	})
	if inc.Report.IncrementalMode != "legacy" || st != nil {
		t.Errorf("traced FindIncremental ran mode %q with capture %v, want the legacy fallback without one",
			inc.Report.IncrementalMode, st != nil)
	}
	if !reflect.DeepEqual(stripTimes(got), stripTimes(want)) {
		t.Errorf("FindIncremental trace\n%+v\nwant Find's\n%+v", got, want)
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
// relabeling round — and checks via the trace that the run aborted before
// any Phase II candidate was examined.
func TestFindCancelDuringPhase1(t *testing.T) {
	errStop := errors.New("stop")
	tl := obs.NewTrace("cancel")
	polls := 0
	_, err := Find(paperMainGraph(), paperSubgraph(), Options{
		Observe: tl.Scope(obs.NoSpan),
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
	for _, sp := range tl.JSON().Spans {
		if sp.Kind == obs.KindCandidate {
			t.Fatalf("candidate %s examined after a Phase I cancellation", sp.Name)
		}
	}
}

package core_test

import (
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/gen/paperex"
	"subgemini/internal/graph"
	"subgemini/internal/obs"
	"subgemini/internal/stdcell"
)

// TestFindEmitsObserveSpans runs the paper's worked example with a timeline
// attached and checks the span stream: a csr-build span (the matcher had to
// construct its own view), a phase1 span with pass/CV attributes, and a
// phase2 span with candidate/instance attributes.
func TestFindEmitsObserveSpans(t *testing.T) {
	tl := obs.NewTimeline("r-test", "http", "POST", "/v1/match")
	res, err := core.Find(paperex.PaperMain(), paperex.PaperPattern(), core.Options{Observe: tl.Scope(obs.NoSpan)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	tl.Finish(200)
	js := tl.JSON()
	byKind := map[string]obs.SpanJSON{}
	for _, sp := range js.Spans {
		byKind[sp.Kind] = sp
	}
	if _, ok := byKind[obs.KindCSRBuild]; !ok {
		t.Errorf("no csr-build span in %+v", js.Spans)
	}
	p1, ok := byKind[obs.KindPhase1]
	if !ok {
		t.Fatalf("no phase1 span in %+v", js.Spans)
	}
	if p1.Name != "paperS" || p1.Attrs["cv_size"] != "2" || p1.Attrs["passes"] == "" {
		t.Errorf("phase1 span = %+v, want pattern paperS, cv_size 2, passes set", p1)
	}
	p2, ok := byKind[obs.KindPhase2]
	if !ok {
		t.Fatalf("no phase2 span in %+v", js.Spans)
	}
	if p2.Attrs["candidates"] != "2" || p2.Attrs["instances"] != "1" {
		t.Errorf("phase2 span = %+v, want 2 candidates, 1 instance", p2)
	}
	if p2.Open || p1.Open {
		t.Error("phase spans left open")
	}
}

// TestFindParallelEmitsObserveSpans checks the parallel path emits the same
// phase1/phase2 spans (it must not fall back to sequential just because a
// timeline is attached, unlike under a trace).
func TestFindParallelEmitsObserveSpans(t *testing.T) {
	tl := obs.NewTimeline("r-par", "http", "POST", "/v1/match")
	m, err := core.NewMatcher(paperex.PaperMain(), core.Options{Observe: tl.Scope(obs.NoSpan)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.FindParallel(paperex.PaperPattern(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Instances) != 1 {
		t.Fatalf("found %d instances, want 1", len(res.Instances))
	}
	kinds := map[string]int{}
	for _, sp := range tl.JSON().Spans {
		kinds[sp.Kind]++
	}
	if kinds[obs.KindPhase1] != 1 || kinds[obs.KindPhase2] != 1 {
		t.Errorf("span kinds %v, want one phase1 and one phase2", kinds)
	}
}

// TestFindIncrementalEmitsObserveSpans checks both incremental paths on the
// paper example (CV {N13, N14}): the capture run tags its phase1 span
// mode=full and verifies both candidates, and a re-match over an identity
// dirty set tags it mode=replay and replays both.
func TestFindIncrementalEmitsObserveSpans(t *testing.T) {
	g := paperex.PaperMain()
	spans := func(prev *core.IncrementalState, ds *core.DirtySet) (p1, p2 obs.SpanJSON, st *core.IncrementalState) {
		t.Helper()
		tl := obs.NewTimeline("r-inc", "http", "POST", "/v1/match")
		m, err := core.NewMatcher(g, core.Options{Observe: tl.Scope(obs.NoSpan)})
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := m.FindIncremental(paperex.PaperPattern(), prev, ds)
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || len(res.Instances) != 1 {
			t.Fatalf("%d instances, state %v", len(res.Instances), st != nil)
		}
		byKind := map[string]obs.SpanJSON{}
		for _, sp := range tl.JSON().Spans {
			byKind[sp.Kind] = sp
		}
		return byKind[obs.KindPhase1], byKind[obs.KindPhase2], st
	}

	p1, p2, st := spans(nil, nil)
	if p1.Attrs["mode"] != "full" || p1.Attrs["cv_size"] != "2" {
		t.Errorf("capture phase1 span = %+v, want mode=full, cv_size 2", p1)
	}
	if p2.Attrs["replayed"] != "0" || p2.Attrs["recomputed"] != "2" {
		t.Errorf("capture phase2 span = %+v, want replayed=0 recomputed=2", p2)
	}

	ds := &core.DirtySet{DevOld2New: identity(g.NumDevices()), NetOld2New: identity(g.NumNets())}
	p1, p2, _ = spans(st, ds)
	if p1.Attrs["mode"] != "replay" || p1.Attrs["cv_size"] != "2" || p1.Attrs["passes"] == "" {
		t.Errorf("replay phase1 span = %+v, want mode=replay, cv_size 2, passes set", p1)
	}
	for _, gone := range []string{"dirty", "region", "degraded"} {
		if v, ok := p1.Attrs[gone]; ok {
			t.Errorf("replay phase1 span has %s=%s; Phase I keeps no incremental state", gone, v)
		}
	}
	if p2.Attrs["replayed"] != "2" || p2.Attrs["recomputed"] != "0" {
		t.Errorf("replay phase2 span = %+v, want replayed=2 recomputed=0", p2)
	}
}

// TestObserveDisabledNoAllocs pins the acceptance criterion that a nil
// Options.Observe adds zero allocations to the match path.  Two pins: the
// nil-scope operations core would invoke are exactly allocation-free (the
// mechanism — every emission site guards on Observe != nil and never
// renders attrs first), and a warmed matcher's Find does not allocate more
// with the nil hook than the same warmed matcher measured again (the
// end-to-end effect).
func TestObserveDisabledNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation allocations")
	}
	allocs := testing.AllocsPerRun(200, func() {
		var sc *obs.Scope
		ref := sc.Begin(obs.KindPhase1, "x")
		sc.Attr(ref, "k", "v")
		sc.AttrInt(ref, "n", 42)
		sc.End(ref)
	})
	if allocs != 0 {
		t.Errorf("nil scope operations allocate %.1f/run, want 0", allocs)
	}

	g, s := paperex.PaperMain(), paperex.PaperPattern()
	m, err := core.NewMatcher(g, core.Options{Scratch: &core.ScratchPool{}})
	if err != nil {
		t.Fatal(err)
	}
	// Warm every lazy cache (CSR view, labels, interning) with one run,
	// then check run-to-run stability: the guarded emissions contribute
	// nothing, so two measurements of the same warmed matcher agree.
	if _, err := m.Find(s); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(100, func() { m.Find(s) })
	again := testing.AllocsPerRun(100, func() { m.Find(s) })
	if again > base {
		t.Errorf("nil Observe path allocates %.0f/run, baseline %.0f", again, base)
	}
}

// TestRequestTimelineStaysCoarse holds request timelines to their coarse
// shape.  Find, FindIncremental and FindParallel under an obs.NewTimeline
// scope must record only span kinds /metrics knows, and as many spans on a
// 1000-gate random circuit, with hundreds of NAND2 candidates, as on the
// paper example with two.  A pass or candidate span that reached a request
// timeline would fail both checks.  Only traces (obs.NewTrace) carry that
// detail.
func TestRequestTimelineStaysCoarse(t *testing.T) {
	known := map[string]bool{}
	for _, k := range obs.SpanKinds {
		known[k] = true
	}
	circuits := []struct {
		name    string
		g, s    *graph.Circuit
		globals []string
	}{
		{"paper", paperex.PaperMain(), paperex.PaperPattern(), nil},
		{"rand1000", gen.RandomLogic(1000, 32, 11).C, stdcell.NAND2.Pattern(), []string{"VDD", "GND"}},
	}
	runs := []struct {
		name string
		run  func(m *core.Matcher, s *graph.Circuit) (*core.Result, error)
	}{
		{"Find", func(m *core.Matcher, s *graph.Circuit) (*core.Result, error) { return m.Find(s) }},
		{"FindIncremental", func(m *core.Matcher, s *graph.Circuit) (*core.Result, error) {
			res, _, err := m.FindIncremental(s, nil, nil)
			return res, err
		}},
		{"FindParallel", func(m *core.Matcher, s *graph.Circuit) (*core.Result, error) { return m.FindParallel(s, 2) }},
	}
	for _, r := range runs {
		spans := make([]int, len(circuits))
		for i, c := range circuits {
			tl := obs.NewTimeline("r-coarse", "http", "POST", "/v1/match")
			m, err := core.NewMatcher(c.g, core.Options{Globals: c.globals, Observe: tl.Scope(obs.NoSpan)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.run(m, c.s)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "rand1000" && res.Report.Candidates < 100 {
				t.Fatalf("%s on %s examined %d candidates; the check needs hundreds", r.name, c.name, res.Report.Candidates)
			}
			js := tl.JSON()
			unknown := map[string]int{}
			for _, sp := range js.Spans {
				if !known[sp.Kind] {
					unknown[sp.Kind]++
				}
			}
			if len(unknown) > 0 {
				t.Errorf("%s on %s recorded spans of kinds /metrics does not know on a request timeline: %v", r.name, c.name, unknown)
			}
			spans[i] = len(js.Spans)
		}
		if spans[0] != spans[1] {
			t.Errorf("%s recorded %d spans on the paper example and %d on rand1000, want the same", r.name, spans[0], spans[1])
		}
	}
}

package core

import (
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
)

// Test-only hooks for package-external tests (the differential tests live
// in core_test so they can use internal/gen, which depends on this
// package).

// SetP1CancelBlock overrides the in-pass cancellation block size and
// returns a restore func, so cancellation tests can force mid-pass polling
// on small circuits.
func SetP1CancelBlock(n int) (restore func()) {
	old := p1CancelBlock
	p1CancelBlock = n
	return func() { p1CancelBlock = old }
}

// SetRegionCancelBlock overrides the region-extraction cancellation block
// size and returns a restore func, so cancellation tests can force mid-BFS
// polling on small circuits.
func SetRegionCancelBlock(n int) (restore func()) {
	old := rCancelBlock
	rCancelBlock = n
	return func() { rCancelBlock = old }
}

// SetIncReplayCap overrides the dirty-region degradation threshold and
// returns a restore func, so incremental tests can force both the
// region-replay path (cap 1.0) and the full-capture degradation path
// (cap 0) on the same circuits.
func SetIncReplayCap(f float64) (restore func()) {
	old := incReplayCap
	incReplayCap = f
	return func() { incReplayCap = old }
}

// UseWholeGraphPhase2ForTest makes m verify candidates with the whole-graph
// Phase II engine (phase2.go), the reference the region engine must match
// instance for instance and in order.
func UseWholeGraphPhase2ForTest(m *Matcher) { m.wholeGraphP2 = true }

// RunPhase1ForTest runs candidate generation alone, mirroring Find's
// global cross-marking, and returns the key vertex, candidate vector, and
// the report counters Phase I filled in.
func RunPhase1ForTest(m *Matcher, s *graph.Circuit) (label.VID, []label.VID, stats.Report, error) {
	pat, err := testPattern(m, s)
	if err != nil {
		return 0, nil, stats.Report{}, err
	}
	var rep stats.Report
	key, cv, err := newPhase1(m, pat, &rep).run()
	return key, cv, rep, err
}

// RunPhase1RefForTest is RunPhase1ForTest over the reference Phase I
// (phase1ref_test.go).  The reference never polls Options.Cancel.
func RunPhase1RefForTest(m *Matcher, s *graph.Circuit) (label.VID, []label.VID, stats.Report, error) {
	pat, err := testPattern(m, s)
	if err != nil {
		return 0, nil, stats.Report{}, err
	}
	var rep stats.Report
	key, cv := runPhase1Ref(m, pat, &rep)
	return key, cv, rep, nil
}

// InitialMainLabelsForTest returns the main-graph labels and global flags
// a run of m against s starts Phase I from (newPhase1's flat pass over the
// CSR view), after Find's global cross-marking.
func InitialMainLabelsForTest(m *Matcher, s *graph.Circuit) ([]label.Value, []bool, error) {
	pat, err := testPattern(m, s)
	if err != nil {
		return nil, nil, err
	}
	p := newPhase1(m, pat, &stats.Report{})
	global := make([]bool, len(p.gState))
	for v, st := range p.gState {
		global[v] = st == g1Global
	}
	return p.gLab, global, nil
}

// LabelsForTest exposes a shared initial labeling's values.
func (il *InitLabels) LabelsForTest() []label.Value { return il.lab }

// testPattern applies Find's global cross-marking and builds the pattern.
func testPattern(m *Matcher, s *graph.Circuit) (*pattern, error) {
	for _, n := range s.Globals() {
		m.markGlobal(n.Name)
	}
	for _, n := range m.g.Globals() {
		s.MarkGlobal(n.Name)
	}
	return newPattern(s, &m.opts)
}

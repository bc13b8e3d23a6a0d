package core

import (
	"fmt"

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

// SetGuessDepthForTest overrides the Phase II guess depth bound and returns
// a restore func, so tests can make deep symmetric searches hit it.
func SetGuessDepthForTest(n int) (restore func()) {
	old := guessDepthLimit
	guessDepthLimit = n
	return func() { guessDepthLimit = old }
}

// AblateForTest switches the design-choice ablations (core.go) and returns
// a restore func, so tests can measure what the Phase II match-time degree
// check and the Phase I global fold buy.  Tests that use it must not run in
// parallel with other matching tests.
func AblateForTest(degreeCheck, globalFold bool) (restore func()) {
	oldDeg, oldFold := ablateDegreeCheck, ablateGlobalFold
	ablateDegreeCheck, ablateGlobalFold = degreeCheck, globalFold
	return func() { ablateDegreeCheck, ablateGlobalFold = oldDeg, oldFold }
}

// FindPhase2RefForTest is m.Find with Phase II on the whole-graph reference
// (phase2ref_test.go), which the region engine must match instance for
// instance and in order.  The reference never polls Options.Cancel.
func FindPhase2RefForTest(m *Matcher, s *graph.Circuit) (*Result, error) {
	return findPhase2Ref(m, s)
}

// DiffTraceTablesForTest verifies every candidate of s on the region engine
// and on the whole-graph reference with Table-1 recording on, and returns
// the number of candidate tables compared or the first disagreement (see
// diffTraceTables).  It sets m's TraceTable option.
func DiffTraceTablesForTest(m *Matcher, s *graph.Circuit) (int, error) {
	return diffTraceTables(m, s)
}

// AdmitAuditForTest runs m's Phase I, then Find's candidate loop
// (refLoop) with the admit filter off: a candidate gets only the checks
// verify made before the filter (not consumed, not fixed, the key's kind,
// compatible for a device key) and then the full search.  Before each
// verification it asks admit about the same candidate, which draws no
// unique label, so the run draws exactly the filter-off label stream.  It
// returns the filter-off result and how many verifications admit
// rejected, or an error naming the first rejected candidate whose
// verification found an instance.
func AdmitAuditForTest(m *Matcher, s *graph.Circuit) (*Result, int, error) {
	pat, err := m.prepare(s)
	if err != nil {
		return nil, 0, err
	}
	res := &Result{}
	key, cv, err := m.runPhase1(pat, res)
	if err != nil || len(cv) == 0 {
		return res, 0, err
	}
	p2, err := newP2Region(m, pat, key, &res.Report)
	if err != nil {
		return res, 0, nil // a pre-match constraint is unsatisfiable
	}
	defer p2.close()
	keyDev := pat.space.IsDevice(key)
	rejected := 0
	err = refLoop(m, res, cv, func(c label.VID) (*Instance, error) {
		if p2.consumedDev(c) || p2.fixedMain(int32(c)) {
			return nil, nil
		}
		admitted := p2.admit(key, c)
		var inst *Instance
		if keyDev == m.gSpace.IsDevice(c) && (!keyDev || p2.compatible(key, c)) {
			inst = p2.search(key, c)
		}
		if !admitted {
			rejected++
			if inst != nil {
				return nil, fmt.Errorf("admit rejected candidate %s, which verifies as %v", m.gSpace.Name(c), inst)
			}
		}
		return inst, nil
	})
	return res, rejected, err
}

// RunPhase1ForTest runs candidate generation alone, under Find's global
// set, and returns the key vertex, candidate vector, and
// the report counters Phase I filled in.
func RunPhase1ForTest(m *Matcher, s *graph.Circuit) (label.VID, []label.VID, stats.Report, error) {
	pat, err := m.prepare(s)
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
	pat, err := m.prepare(s)
	if err != nil {
		return 0, nil, stats.Report{}, err
	}
	var rep stats.Report
	key, cv := runPhase1Ref(m, pat, &rep)
	return key, cv, rep, nil
}

// InitialMainLabelsForTest returns the main-graph labels and global flags
// a run of m against s starts Phase I from (newPhase1's, computed by the
// flat pass over the CSR view or copied from the view's cache), under
// Find's global set.
func InitialMainLabelsForTest(m *Matcher, s *graph.Circuit) ([]label.Value, []bool, error) {
	pat, err := m.prepare(s)
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

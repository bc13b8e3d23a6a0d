package stats

import (
	"sort"
	"sync"
)

// Aggregate accumulates Reports across many matching runs.  It is safe for
// concurrent use: the serving daemon feeds it from every request handler,
// and the benchmark harness uses it to total a table.
//
// Counters and durations are summed; the per-run identification fields
// (KeyVertex, KeyIsDevice) do not aggregate and stay zero,
// and EarlyAbort becomes a count in Snapshot.EarlyAborts.
//
// Reports added with AddPattern additionally keep per-pattern totals, so
// merged streams — a library sweep interleaving reports from many patterns
// — do not lose attribution: Snapshot still answers "how much work in
// total", Patterns answers "which pattern cost what".
type Aggregate struct {
	mu          sync.Mutex
	runs        int
	earlyAborts int
	sum         Report
	byPattern   map[string]*patternTotals
}

type patternTotals struct {
	runs        int
	earlyAborts int
	sum         Report
}

func (t *patternTotals) add(r *Report) {
	t.runs++
	if r.EarlyAbort {
		t.earlyAborts++
	}
	t.sum.Phase1Passes += r.Phase1Passes
	t.sum.Phase1Pruned += r.Phase1Pruned
	t.sum.Phase1Duration += r.Phase1Duration
	t.sum.CVSize += r.CVSize
	t.sum.Candidates += r.Candidates
	t.sum.CandidatesMatched += r.CandidatesMatched
	t.sum.Filtered += r.Filtered
	t.sum.Phase2Passes += r.Phase2Passes
	t.sum.Guesses += r.Guesses
	t.sum.Backtracks += r.Backtracks
	t.sum.GuessLimitHits += r.GuessLimitHits
	t.sum.VerifyCalls += r.VerifyCalls
	t.sum.Phase2Duration += r.Phase2Duration
	t.sum.Instances += r.Instances
	t.sum.MatchedDevices += r.MatchedDevices
	t.sum.RegionBallSum += r.RegionBallSum
	if r.RegionMaxSize > t.sum.RegionMaxSize {
		t.sum.RegionMaxSize = r.RegionMaxSize
	}
}

// Add folds one run's report into the totals, without pattern attribution.
func (a *Aggregate) Add(r *Report) { a.AddPattern("", r) }

// AddPattern folds one run's report into the totals and, when pattern is
// non-empty, into that pattern's own totals.
func (a *Aggregate) AddPattern(pattern string, r *Report) {
	if r == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs++
	if r.EarlyAbort {
		a.earlyAborts++
	}
	a.sum.Phase1Passes += r.Phase1Passes
	a.sum.Phase1Pruned += r.Phase1Pruned
	a.sum.Phase1Duration += r.Phase1Duration
	a.sum.CVSize += r.CVSize
	a.sum.Candidates += r.Candidates
	a.sum.CandidatesMatched += r.CandidatesMatched
	a.sum.Filtered += r.Filtered
	a.sum.Phase2Passes += r.Phase2Passes
	a.sum.Guesses += r.Guesses
	a.sum.Backtracks += r.Backtracks
	a.sum.GuessLimitHits += r.GuessLimitHits
	a.sum.VerifyCalls += r.VerifyCalls
	a.sum.Phase2Duration += r.Phase2Duration
	a.sum.Instances += r.Instances
	a.sum.MatchedDevices += r.MatchedDevices
	a.sum.RegionBallSum += r.RegionBallSum
	if r.RegionMaxSize > a.sum.RegionMaxSize {
		a.sum.RegionMaxSize = r.RegionMaxSize
	}
	if pattern == "" {
		return
	}
	if a.byPattern == nil {
		a.byPattern = make(map[string]*patternTotals)
	}
	t := a.byPattern[pattern]
	if t == nil {
		t = &patternTotals{}
		a.byPattern[pattern] = t
	}
	t.add(r)
}

// Snapshot is a point-in-time copy of an Aggregate.
type Snapshot struct {
	// Runs is the number of reports folded in.
	Runs int
	// EarlyAborts counts runs whose Phase I proved no instance can exist.
	EarlyAborts int
	// Sum holds the summed counters and durations (identification fields
	// zero).
	Sum Report
}

// Snapshot returns a consistent copy of the totals so far.
func (a *Aggregate) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Snapshot{Runs: a.runs, EarlyAborts: a.earlyAborts, Sum: a.sum}
}

// PatternSnapshot is one pattern's share of an Aggregate.
type PatternSnapshot struct {
	Pattern     string
	Runs        int
	EarlyAborts int
	Sum         Report
}

// Patterns returns per-pattern totals sorted by pattern name.  Only
// reports folded in through AddPattern with a non-empty name appear; their
// work is also included in Snapshot's grand totals.
func (a *Aggregate) Patterns() []PatternSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]PatternSnapshot, 0, len(a.byPattern))
	for name, t := range a.byPattern {
		out = append(out, PatternSnapshot{Pattern: name, Runs: t.runs, EarlyAborts: t.earlyAborts, Sum: t.sum})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pattern < out[j].Pattern })
	return out
}

// Reset zeroes the aggregate, including per-pattern totals.
func (a *Aggregate) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.runs, a.earlyAborts, a.sum = 0, 0, Report{}
	a.byPattern = nil
}

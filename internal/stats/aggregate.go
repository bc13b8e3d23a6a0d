package stats

import (
	"sort"
	"sync"
)

// Aggregate accumulates Reports across many matching runs.  It is safe for
// concurrent use: the serving daemon feeds its /metrics match and sweep
// series from every request handler.
//
// Counters and durations are summed (Report.Add); the per-run
// identification fields (KeyVertex, KeyIsDevice) do not aggregate and stay
// zero, and EarlyAbort becomes a count in Snapshot.EarlyAborts.
//
// Reports added under a pattern name additionally keep per-pattern
// totals, so merged streams — a library sweep interleaving reports from
// many patterns — do not lose attribution: Snapshot still answers "how
// much work in total", Patterns answers "which pattern cost what".
type Aggregate struct {
	mu        sync.Mutex
	all       totals
	byPattern map[string]*totals
}

// totals is one stream's run count, early-abort count and summed report.
type totals struct {
	runs        int
	earlyAborts int
	sum         Report
}

func (t *totals) add(r *Report) {
	t.runs++
	if r.EarlyAbort {
		t.earlyAborts++
	}
	t.sum.Add(r)
}

// AddPattern folds one run's report into the totals and, when pattern is
// non-empty, into that pattern's own totals.
func (a *Aggregate) AddPattern(pattern string, r *Report) {
	if r == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.all.add(r)
	if pattern == "" {
		return
	}
	if a.byPattern == nil {
		a.byPattern = make(map[string]*totals)
	}
	t := a.byPattern[pattern]
	if t == nil {
		t = &totals{}
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
	return Snapshot{Runs: a.all.runs, EarlyAborts: a.all.earlyAborts, Sum: a.all.sum}
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
	a.all = totals{}
	a.byPattern = nil
}

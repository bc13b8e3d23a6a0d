// Package stats collects the instrumentation counters and timings that the
// matcher reports for each run: Phase I pass counts and candidate-vector
// sizes, Phase II pass counts, guesses, and backtracks, plus wall-clock
// durations.  The counters correspond to the quantities the paper discusses
// when arguing that SubGemini runs in time roughly linear in the total
// number of devices inside the matched subcircuits.
//
// A Report summarizes one run; an Aggregate folds many Reports together
// for a long-lived consumer, the subgeminid /metrics endpoint.  The
// paper-table benchmarks (bench_test.go at the module root) report a
// run's counters as benchmark metrics.  For per-pass and per-candidate
// rather than per-run visibility, run the match under a trace
// (obs.NewTrace).
package stats

import (
	"fmt"
	"time"
)

// Report accumulates the measurements of one matching run.
type Report struct {
	// Phase I.
	Phase1Passes   int           // full net+device relabeling rounds
	Phase1Pruned   int           // main-graph vertices pruned by consistency checks
	Phase1Duration time.Duration // wall-clock spent in Phase I
	CVSize         int           // size of the candidate vector
	KeyVertex      string        // name of the chosen key vertex
	KeyIsDevice    bool          // whether the key vertex is a device
	EarlyAbort     bool          // Phase I proved no instance can exist

	// Phase II.
	Candidates        int           // candidate vertices examined
	CandidatesMatched int           // candidates whose verification produced an instance (pre-dedup)
	Filtered          int           // candidate verifications the admit filter rejected before extracting a ball (counted in Candidates too)
	Phase2Passes      int           // relabeling passes across all candidates
	Guesses           int           // ambiguity resolutions attempted
	Backtracks        int           // guesses that failed and were undone
	GuessLimitHits    int           // guesses refused at the depth bound; each abandons a branch unexplored, so an instance may be missed
	VerifyCalls       int           // full mapping verifications performed
	Phase2Duration    time.Duration // wall-clock spent in Phase II

	// Phase II candidate regions.  RegionBallSum accumulates the extracted
	// ball sizes across all candidates, so RegionBallSum/Candidates
	// approximates the average per-candidate working set; RegionMaxSize is
	// the largest single ball.
	RegionRadius  int // pattern eccentricity from the key vertex
	RegionMaxSize int // largest candidate ball extracted
	RegionBallSum int // total ball vertices across all candidates

	// Incremental matching (zero/empty for plain Find runs).
	// IncrementalMode records which path FindIncremental took: "replay"
	// (full Phase I + cached Phase II outcomes), "full" (no usable capture:
	// a capturing run that replays nothing), or "legacy"
	// (capture-incompatible options sent the run through plain Find).
	// Replayed counts candidates whose outcome was replayed from the
	// previous state; Recomputed counts candidates verified afresh;
	// DirtyVertices is the size of the dirty set the run started from.
	IncrementalMode string
	Replayed        int
	Recomputed      int
	DirtyVertices   int

	// Outcome.
	Instances      int // instances found
	MatchedDevices int // total devices inside matched instances

	// CancelledAt records where Options.Cancel cut the run short: "phase1"
	// (during candidate generation) or "phase2" (during candidate
	// verification).  Empty for runs that completed.  A cancelled run's
	// other counters cover the work done up to the cut.
	CancelledAt string
}

// Add folds o's counters and durations into r: every count and duration
// is summed and RegionMaxSize keeps the larger ball.  The identification
// fields, EarlyAbort, RegionRadius, the incremental fields and CancelledAt
// describe one run and are left as they are.
func (r *Report) Add(o *Report) {
	r.Phase1Passes += o.Phase1Passes
	r.Phase1Pruned += o.Phase1Pruned
	r.Phase1Duration += o.Phase1Duration
	r.CVSize += o.CVSize
	r.Candidates += o.Candidates
	r.CandidatesMatched += o.CandidatesMatched
	r.Filtered += o.Filtered
	r.Phase2Passes += o.Phase2Passes
	r.Guesses += o.Guesses
	r.Backtracks += o.Backtracks
	r.GuessLimitHits += o.GuessLimitHits
	r.VerifyCalls += o.VerifyCalls
	r.Phase2Duration += o.Phase2Duration
	r.Instances += o.Instances
	r.MatchedDevices += o.MatchedDevices
	r.RegionBallSum += o.RegionBallSum
	if o.RegionMaxSize > r.RegionMaxSize {
		r.RegionMaxSize = o.RegionMaxSize
	}
}

// Total returns the combined Phase I + Phase II duration.
func (r *Report) Total() time.Duration { return r.Phase1Duration + r.Phase2Duration }

// RegionAvgSize returns the mean candidate ball size of the run, or zero
// when no ball was extracted.
func (r *Report) RegionAvgSize() float64 {
	if r.RegionBallSum == 0 || r.Candidates == 0 {
		return 0
	}
	return float64(r.RegionBallSum) / float64(r.Candidates)
}

// String formats the report for logs and the CLI's stats line.
func (r *Report) String() string {
	s := fmt.Sprintf(
		"instances=%d matchedDevs=%d cv=%d key=%s p1passes=%d p2passes=%d guesses=%d backtracks=%d t1=%v t2=%v",
		r.Instances, r.MatchedDevices, r.CVSize, r.KeyVertex,
		r.Phase1Passes, r.Phase2Passes, r.Guesses, r.Backtracks,
		r.Phase1Duration.Round(time.Microsecond), r.Phase2Duration.Round(time.Microsecond))
	if r.Filtered > 0 {
		s += fmt.Sprintf(" filtered=%d", r.Filtered)
	}
	if r.GuessLimitHits > 0 {
		s += fmt.Sprintf(" guessLimitHits=%d", r.GuessLimitHits)
	}
	if r.RegionBallSum > 0 {
		s += fmt.Sprintf(" regionR=%d regionAvg=%.0f regionMax=%d",
			r.RegionRadius, r.RegionAvgSize(), r.RegionMaxSize)
	}
	if r.IncrementalMode != "" {
		s += fmt.Sprintf(" inc=%s replayed=%d recomputed=%d dirty=%d",
			r.IncrementalMode, r.Replayed, r.Recomputed, r.DirtyVertices)
	}
	if r.CancelledAt != "" {
		s += " cancelled=" + r.CancelledAt
	}
	return s
}

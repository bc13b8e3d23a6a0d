package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"subgemini/internal/jobs"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
	"subgemini/internal/store"
	"subgemini/internal/sweep"
)

// histBounds are the bucket upper bounds, in seconds, of the per-phase
// duration histograms: one decade per bucket from 10µs to 10s.  Phase I is
// linear in the main graph and Phase II in the matched devices, so a
// per-decade resolution separates "cheap pattern" from "pathological
// pattern" without a dependency on a metrics library.
var histBounds = [...]float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// histogram is a fixed-bucket duration histogram with lock-free updates.
// Buckets store per-bucket counts; the Prometheus-style rendering
// accumulates them into the conventional cumulative le-labeled series.
type histogram struct {
	buckets [len(histBounds)]atomic.Int64
	count   atomic.Int64
	sumNS   atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	for i := range histBounds {
		if s <= histBounds[i] {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNS.Add(int64(d))
}

func (h *histogram) write(w io.Writer, name string) {
	var cum int64
	for i := range histBounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", histBounds[i]), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %.6f\n", name, time.Duration(h.sumNS.Load()).Seconds())
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// maxPatternLabels caps the distinct pattern labels each pattern-labeled
// metric family may carry; patterns beyond the cap are lumped under
// "_other".
const maxPatternLabels = 64

// labelSet admits metric label values up to maxPatternLabels and folds the
// rest into "_other".  Pattern names come from requests (an inline
// netlist's .SUBCKT, a sweep library), so a family labeled by them must
// not grow without bound.  One labelSet serves one metric family.
type labelSet struct {
	mu   sync.Mutex
	seen map[string]bool
}

// admit maps a pattern name to its label, admitting new names until the
// cap.
func (l *labelSet) admit(name string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen[name] {
		return name
	}
	if len(l.seen) >= maxPatternLabels {
		return "_other"
	}
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	l.seen[name] = true
	return name
}

// metrics aggregates the daemon's observable state: request accounting,
// an in-flight gauge, the summed per-run matcher reports, per-phase
// duration histograms, and per-pattern candidate-outcome counters.  The
// text rendering is Prometheus-style exposition ("name value" plus
// le/pattern-labeled series), so it is trivially scrapable without pulling
// in a metrics dependency.
type metrics struct {
	requests    atomic.Int64 // HTTP requests served (any route)
	errors      atomic.Int64 // responses with status >= 400
	timeouts    atomic.Int64 // match requests that hit their deadline
	rejected    atomic.Int64 // requests turned away by admission control
	inflight    atomic.Int64 // match runs currently executing
	matchRuns   stats.Aggregate
	matchLabels labelSet

	// Load-shedding counters, one per bulk endpoint (see shedBulk).
	shedBatch atomic.Int64
	shedSweep atomic.Int64
	shedJobs  atomic.Int64

	phase1 histogram // Phase I wall time per run
	phase2 histogram // Phase II wall time per run

	// Library-sweep accounting; sweepRuns keys per-pattern totals by the
	// sweep family's own bounded label set.
	sweeps         atomic.Int64 // sweep invocations
	sweepPatterns  atomic.Int64 // patterns swept, deduplicated ones included
	sweepDeduped   atomic.Int64 // patterns answered from a structural twin's run
	sweepInstances atomic.Int64 // instances found across all sweep patterns
	sweepDur       histogram    // sweep wall time per invocation
	sweepRuns      stats.Aggregate
	sweepLabels    labelSet
}

// shed counts one turned-away bulk request under its endpoint label.
func (m *metrics) shed(endpoint string) {
	switch endpoint {
	case "batch":
		m.shedBatch.Add(1)
	case "sweep":
		m.shedSweep.Add(1)
	case "jobs":
		m.shedJobs.Add(1)
	}
}

// observeSweep folds one finished library sweep into the sweep series.
// Deduplicated patterns share their representative's run, so only
// representatives feed the per-pattern aggregate — otherwise one run's
// work would be counted once per structural twin.
func (m *metrics) observeSweep(rep *sweep.Report) {
	m.sweeps.Add(1)
	m.sweepPatterns.Add(int64(len(rep.Results)))
	m.sweepDeduped.Add(int64(rep.Deduped))
	m.sweepInstances.Add(int64(rep.Instances()))
	m.sweepDur.observe(rep.Duration)
	for i := range rep.Results {
		pr := &rep.Results[i]
		if pr.Alias != "" {
			continue
		}
		m.sweepRuns.AddPattern(m.sweepLabels.admit(pr.Name), &pr.Report)
	}
}

// observe folds one finished match run into every per-run series: the
// summed report aggregate with its pattern-labeled totals, and the
// phase-duration histograms.
func (m *metrics) observe(pattern string, r *stats.Report) {
	m.matchRuns.AddPattern(m.matchLabels.admit(pattern), r)
	m.phase1.observe(r.Phase1Duration)
	m.phase2.observe(r.Phase2Duration)
}

// externalMetrics carries the state that lives outside the metrics struct
// — cache counters, store stats, job counters, and the default circuit's
// shape — into one write call.
type externalMetrics struct {
	cache          cacheCounters
	store          store.Stats
	jobs           jobs.Counters
	jobsQueued     int
	jobsRunning    int
	circuitDevices int
	circuitNets    int
	ready          bool // /readyz verdict at scrape time
	storeHealthy   bool // store.Healthy() at scrape time
	faultsArmed    int  // armed fault-injection points
	faultsFired    int64

	// Versioned result cache counters (delta.ResultCache).
	resultHits          uint64
	resultMisses        uint64
	resultInvalidations uint64

	// Flight-recorder counters (obs.Recorder.CountersSnapshot at scrape
	// time); the zero value renders every fixed label at 0.
	obsCounters obs.Counters
}

// b01 renders a boolean gauge.
func b01(v bool) int {
	if v {
		return 1
	}
	return 0
}

// write renders the metrics dump.
func (m *metrics) write(w io.Writer, ext externalMetrics) {
	snap := m.matchRuns.Snapshot()
	hits, misses := ext.cache.hits, ext.cache.misses
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	fmt.Fprintf(w, "subgeminid_requests_total %d\n", m.requests.Load())
	fmt.Fprintf(w, "subgeminid_requests_errors_total %d\n", m.errors.Load())
	fmt.Fprintf(w, "subgeminid_requests_timeouts_total %d\n", m.timeouts.Load())
	fmt.Fprintf(w, "subgeminid_requests_rejected_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "subgeminid_shed_total{endpoint=\"batch\"} %d\n", m.shedBatch.Load())
	fmt.Fprintf(w, "subgeminid_shed_total{endpoint=\"jobs\"} %d\n", m.shedJobs.Load())
	fmt.Fprintf(w, "subgeminid_shed_total{endpoint=\"sweep\"} %d\n", m.shedSweep.Load())
	fmt.Fprintf(w, "subgeminid_ready %d\n", b01(ext.ready))
	fmt.Fprintf(w, "subgeminid_matches_inflight %d\n", m.inflight.Load())
	fmt.Fprintf(w, "subgeminid_match_runs_total %d\n", snap.Runs)
	fmt.Fprintf(w, "subgeminid_match_early_aborts_total %d\n", snap.EarlyAborts)
	fmt.Fprintf(w, "subgeminid_match_instances_total %d\n", snap.Sum.Instances)
	fmt.Fprintf(w, "subgeminid_match_matched_devices_total %d\n", snap.Sum.MatchedDevices)
	fmt.Fprintf(w, "subgeminid_match_candidates_total %d\n", snap.Sum.Candidates)
	fmt.Fprintf(w, "subgeminid_match_cv_entries_total %d\n", snap.Sum.CVSize)
	fmt.Fprintf(w, "subgeminid_match_phase1_passes_total %d\n", snap.Sum.Phase1Passes)
	fmt.Fprintf(w, "subgeminid_match_phase2_passes_total %d\n", snap.Sum.Phase2Passes)
	fmt.Fprintf(w, "subgeminid_match_guesses_total %d\n", snap.Sum.Guesses)
	fmt.Fprintf(w, "subgeminid_match_backtracks_total %d\n", snap.Sum.Backtracks)
	fmt.Fprintf(w, "subgeminid_match_verify_calls_total %d\n", snap.Sum.VerifyCalls)
	fmt.Fprintf(w, "subgeminid_match_phase1_seconds_total %.6f\n", snap.Sum.Phase1Duration.Seconds())
	fmt.Fprintf(w, "subgeminid_match_phase2_seconds_total %.6f\n", snap.Sum.Phase2Duration.Seconds())
	fmt.Fprintf(w, "subgeminid_match_region_vertices_total %d\n", snap.Sum.RegionBallSum)
	fmt.Fprintf(w, "subgeminid_match_region_max_size %d\n", snap.Sum.RegionMaxSize)
	fmt.Fprintf(w, "subgeminid_pattern_cache_size %d\n", ext.cache.size)
	fmt.Fprintf(w, "subgeminid_pattern_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "subgeminid_pattern_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "subgeminid_pattern_cache_evictions_total %d\n", ext.cache.evictions)
	fmt.Fprintf(w, "subgeminid_pattern_cache_hit_rate %.4f\n", hitRate)
	fmt.Fprintf(w, "subgeminid_store_circuits %d\n", ext.store.Circuits)
	fmt.Fprintf(w, "subgeminid_store_resident %d\n", ext.store.Resident)
	fmt.Fprintf(w, "subgeminid_store_resident_bytes %d\n", ext.store.ResidentBytes)
	fmt.Fprintf(w, "subgeminid_store_evictions_total %d\n", ext.store.Evictions)
	fmt.Fprintf(w, "subgeminid_store_reloads_total %d\n", ext.store.Reloads)
	fmt.Fprintf(w, "subgeminid_store_healthy %d\n", b01(ext.storeHealthy))
	fmt.Fprintf(w, "subgeminid_delta_edits_total %d\n", ext.store.Edits)
	fmt.Fprintf(w, "subgeminid_csr_rebuilds_total %d\n", ext.store.CSRRebuilds)
	fmt.Fprintf(w, "subgeminid_result_cache_hits_total %d\n", ext.resultHits)
	fmt.Fprintf(w, "subgeminid_result_cache_misses_total %d\n", ext.resultMisses)
	fmt.Fprintf(w, "subgeminid_result_cache_invalidations_total %d\n", ext.resultInvalidations)
	fmt.Fprintf(w, "subgeminid_jobs_submitted_total %d\n", ext.jobs.Submitted)
	fmt.Fprintf(w, "subgeminid_jobs_done_total %d\n", ext.jobs.Done)
	fmt.Fprintf(w, "subgeminid_jobs_failed_total %d\n", ext.jobs.Failed)
	fmt.Fprintf(w, "subgeminid_jobs_cancelled_total %d\n", ext.jobs.Cancelled)
	fmt.Fprintf(w, "subgeminid_jobs_recovered_total %d\n", ext.jobs.Recovered)
	fmt.Fprintf(w, "subgeminid_jobs_persist_retries_total %d\n", ext.jobs.PersistRetries)
	fmt.Fprintf(w, "subgeminid_jobs_queued %d\n", ext.jobsQueued)
	fmt.Fprintf(w, "subgeminid_jobs_running %d\n", ext.jobsRunning)
	fmt.Fprintf(w, "subgeminid_circuit_devices %d\n", ext.circuitDevices)
	fmt.Fprintf(w, "subgeminid_circuit_nets %d\n", ext.circuitNets)
	fmt.Fprintf(w, "subgeminid_sweeps_total %d\n", m.sweeps.Load())
	fmt.Fprintf(w, "subgeminid_sweep_patterns_total %d\n", m.sweepPatterns.Load())
	fmt.Fprintf(w, "subgeminid_sweep_deduped_total %d\n", m.sweepDeduped.Load())
	fmt.Fprintf(w, "subgeminid_sweep_instances_total %d\n", m.sweepInstances.Load())
	fmt.Fprintf(w, "subgeminid_faults_armed %d\n", ext.faultsArmed)
	fmt.Fprintf(w, "subgeminid_faults_fired_total %d\n", ext.faultsFired)
	fmt.Fprintf(w, "subgeminid_slow_requests_total %d\n", ext.obsCounters.Slow)
	// Span-kind and keep-reason label sets are fixed, so every series renders
	// (at zero if never hit) and dashboards can rely on their presence.
	for _, kind := range obs.SpanKinds {
		fmt.Fprintf(w, "subgeminid_request_spans_total{kind=%q} %d\n", kind, ext.obsCounters.Spans[kind])
	}
	for _, reason := range obs.KeepReasons {
		fmt.Fprintf(w, "subgeminid_flight_recorder_kept_total{reason=%q} %d\n", reason, ext.obsCounters.Kept[reason])
	}
	m.phase1.write(w, "subgeminid_match_phase1_seconds")
	m.phase2.write(w, "subgeminid_match_phase2_seconds")
	m.sweepDur.write(w, "subgeminid_sweep_seconds")
	m.writePatterns(w)
	m.writeSweepPatterns(w)
}

// writePatterns renders the bounded pattern-labeled match series in
// sorted order so the dump is deterministic.  The failed series is derived
// (candidates that did not verify) because that difference — how many
// Phase II attempts the candidate vector wastes — is the number worth
// alerting on.
func (m *metrics) writePatterns(w io.Writer) {
	for _, ps := range m.matchRuns.Patterns() {
		fmt.Fprintf(w, "subgeminid_pattern_runs_total{pattern=%q} %d\n", ps.Pattern, ps.Runs)
		fmt.Fprintf(w, "subgeminid_pattern_candidates_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.Candidates)
		fmt.Fprintf(w, "subgeminid_pattern_candidates_matched_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.CandidatesMatched)
		fmt.Fprintf(w, "subgeminid_pattern_candidates_failed_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.Candidates-ps.Sum.CandidatesMatched)
		fmt.Fprintf(w, "subgeminid_pattern_instances_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.Instances)
	}
}

// writeSweepPatterns renders the bounded pattern-labeled sweep series; the
// stats.Aggregate pattern dimension keeps attribution even though sweep
// reports from many patterns merge into one stream.
func (m *metrics) writeSweepPatterns(w io.Writer) {
	for _, ps := range m.sweepRuns.Patterns() {
		fmt.Fprintf(w, "subgeminid_sweep_pattern_runs_total{pattern=%q} %d\n", ps.Pattern, ps.Runs)
		fmt.Fprintf(w, "subgeminid_sweep_pattern_early_aborts_total{pattern=%q} %d\n", ps.Pattern, ps.EarlyAborts)
		fmt.Fprintf(w, "subgeminid_sweep_pattern_candidates_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.Candidates)
		fmt.Fprintf(w, "subgeminid_sweep_pattern_pruned_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.Phase1Pruned)
		fmt.Fprintf(w, "subgeminid_sweep_pattern_instances_total{pattern=%q} %d\n", ps.Pattern, ps.Sum.Instances)
	}
}

package server

import (
	"fmt"
	"strings"
)

// MetricDef describes one metric family of the /metrics dump for the
// generated OPERATIONS.md reference.  The registry below is the single
// source of truth the runbook is generated from; TestMetricsReferenceSync
// keeps it equal to what metrics.write actually renders, and the docgen
// staleness gate keeps OPERATIONS.md equal to the registry — so a metric
// added to the dump without a registry entry (or vice versa) fails tier-1.
type MetricDef struct {
	Name   string // family name as rendered (histograms: base name)
	Type   string // "counter", "gauge", or "histogram"
	Labels string // label key, "" for unlabeled families
	Desc   string // one-line operator-facing description
}

// MetricsReference returns every metric family subgeminid exposes, in dump
// order.
func MetricsReference() []MetricDef {
	return []MetricDef{
		{"subgeminid_requests_total", "counter", "", "HTTP requests served, any route"},
		{"subgeminid_requests_errors_total", "counter", "", "responses with status >= 400"},
		{"subgeminid_requests_timeouts_total", "counter", "", "match requests that hit their deadline (504)"},
		{"subgeminid_requests_rejected_total", "counter", "", "match requests that found no slot before their deadline (503)"},
		{"subgeminid_shed_total", "counter", "endpoint", "bulk requests turned away by load shedding (429), by endpoint: batch, jobs, sweep"},
		{"subgeminid_ready", "gauge", "", "1 when /readyz reports ready, 0 while draining or store-degraded"},
		{"subgeminid_matches_inflight", "gauge", "", "match runs executing right now"},
		{"subgeminid_match_runs_total", "counter", "", "finished match runs"},
		{"subgeminid_match_early_aborts_total", "counter", "", "runs Phase I refuted without entering Phase II"},
		{"subgeminid_match_instances_total", "counter", "", "verified instances found"},
		{"subgeminid_match_matched_devices_total", "counter", "", "main-circuit devices covered by found instances"},
		{"subgeminid_match_candidates_total", "counter", "", "Phase II candidates examined"},
		{"subgeminid_match_cv_entries_total", "counter", "", "candidate-vector entries produced by Phase I"},
		{"subgeminid_match_phase1_passes_total", "counter", "", "Phase I relabeling passes"},
		{"subgeminid_match_phase2_passes_total", "counter", "", "Phase II propagation passes"},
		{"subgeminid_match_guesses_total", "counter", "", "Phase II guesses (ambiguous-partition splits)"},
		{"subgeminid_match_backtracks_total", "counter", "", "Phase II backtracks from failed guesses"},
		{"subgeminid_match_verify_calls_total", "counter", "", "candidate verification calls"},
		{"subgeminid_match_phase1_seconds_total", "counter", "", "summed Phase I wall time, seconds"},
		{"subgeminid_match_phase2_seconds_total", "counter", "", "summed Phase II wall time, seconds"},
		{"subgeminid_match_region_vertices_total", "counter", "", "vertices inside extracted Phase II candidate regions (region engine)"},
		{"subgeminid_match_region_max_size", "gauge", "", "largest Phase II candidate region extracted since boot"},
		{"subgeminid_pattern_cache_size", "gauge", "", "compiled patterns resident in the cache"},
		{"subgeminid_pattern_cache_hits_total", "counter", "", "pattern cache hits"},
		{"subgeminid_pattern_cache_misses_total", "counter", "", "pattern cache misses (compiles)"},
		{"subgeminid_pattern_cache_evictions_total", "counter", "", "patterns LRU-evicted from the cache"},
		{"subgeminid_pattern_cache_hit_rate", "gauge", "", "hits / (hits + misses) since boot"},
		{"subgeminid_store_circuits", "gauge", "", "circuits the store holds, resident or demoted"},
		{"subgeminid_store_resident", "gauge", "", "circuits currently resident in memory"},
		{"subgeminid_store_resident_bytes", "gauge", "", "estimated bytes of resident circuits"},
		{"subgeminid_store_evictions_total", "counter", "", "circuits demoted to their snapshots under the byte budget"},
		{"subgeminid_store_reloads_total", "counter", "", "demoted circuits reloaded from snapshots on demand"},
		{"subgeminid_store_healthy", "gauge", "", "1 when the store's last persistence operation succeeded"},
		{"subgeminid_delta_edits_total", "counter", "", "edit batches applied via PATCH /v1/circuits/{name}"},
		{"subgeminid_csr_rebuilds_total", "counter", "", "edits whose CSR patch degenerated to a full rebuild (large blast radius)"},
		{"subgeminid_result_cache_hits_total", "counter", "", "incremental result-cache lookups that found a usable capture"},
		{"subgeminid_result_cache_misses_total", "counter", "", "incremental result-cache lookups that forced a full, re-capturing run"},
		{"subgeminid_result_cache_invalidations_total", "counter", "", "result-cache entries dropped by circuit replacement or deletion (PATCH never invalidates)"},
		{"subgeminid_jobs_submitted_total", "counter", "", "async jobs accepted"},
		{"subgeminid_jobs_done_total", "counter", "", "async jobs finished successfully"},
		{"subgeminid_jobs_failed_total", "counter", "", "async jobs that failed (errors, panics, interrupted-at-boot)"},
		{"subgeminid_jobs_cancelled_total", "counter", "", "async jobs cancelled by clients or shutdown"},
		{"subgeminid_jobs_recovered_total", "counter", "", "interrupted job records marked failed at boot"},
		{"subgeminid_jobs_persist_retries_total", "counter", "", "job record writes retried after an I/O error"},
		{"subgeminid_jobs_queued", "gauge", "", "jobs waiting for a worker"},
		{"subgeminid_jobs_running", "gauge", "", "jobs executing right now"},
		{"subgeminid_circuit_devices", "gauge", "", "device count of the default circuit"},
		{"subgeminid_circuit_nets", "gauge", "", "net count of the default circuit"},
		{"subgeminid_sweeps_total", "counter", "", "library sweeps executed"},
		{"subgeminid_sweep_patterns_total", "counter", "", "patterns swept, deduplicated ones included"},
		{"subgeminid_sweep_deduped_total", "counter", "", "patterns answered from a structural twin's run"},
		{"subgeminid_sweep_instances_total", "counter", "", "instances found across all sweep patterns"},
		{"subgeminid_faults_armed", "gauge", "", "fault-injection points currently armed (0 in production)"},
		{"subgeminid_faults_fired_total", "counter", "", "injected faults fired since boot"},
		{"subgeminid_slow_requests_total", "counter", "", "requests over the -slow-request threshold (each also logs a slow-request line and is kept by the flight recorder)"},
		{"subgeminid_request_spans_total", "counter", "kind", "telemetry spans recorded, by kind: queue-wait, shed-check, store-get, csr-build, phase1, phase2, cache-lookup, parse, flatten, persist"},
		{"subgeminid_flight_recorder_kept_total", "counter", "reason", "timelines the flight recorder kept, by reason: shed, cancel, error, slow, sampled"},
		{"subgeminid_match_phase1_seconds", "histogram", "le", "Phase I wall time per run, decade buckets 10µs..10s"},
		{"subgeminid_match_phase2_seconds", "histogram", "le", "Phase II wall time per run, decade buckets 10µs..10s"},
		{"subgeminid_sweep_seconds", "histogram", "le", "sweep wall time per invocation, decade buckets 10µs..10s"},
		{"subgeminid_pattern_runs_total", "counter", "pattern", "match runs per pattern label (bounded cardinality; overflow under \"_other\")"},
		{"subgeminid_pattern_candidates_total", "counter", "pattern", "Phase II candidates examined per pattern label"},
		{"subgeminid_pattern_candidates_matched_total", "counter", "pattern", "candidates that verified per pattern label"},
		{"subgeminid_pattern_candidates_failed_total", "counter", "pattern", "candidates Phase II rejected per pattern label (the selectivity number worth alerting on)"},
		{"subgeminid_pattern_instances_total", "counter", "pattern", "instances found per pattern label"},
		{"subgeminid_sweep_pattern_runs_total", "counter", "pattern", "sweep runs per pattern label (bounded cardinality; overflow under \"_other\")"},
		{"subgeminid_sweep_pattern_early_aborts_total", "counter", "pattern", "sweep runs Phase I refuted per pattern label"},
		{"subgeminid_sweep_pattern_candidates_total", "counter", "pattern", "sweep Phase II candidates per pattern label"},
		{"subgeminid_sweep_pattern_pruned_total", "counter", "pattern", "sweep candidates pruned by Phase I per pattern label"},
		{"subgeminid_sweep_pattern_instances_total", "counter", "pattern", "sweep instances per pattern label"},
	}
}

// MetricsReferenceMarkdown renders the registry as the markdown table
// docgen splices into OPERATIONS.md.
func MetricsReferenceMarkdown() string {
	var b strings.Builder
	b.WriteString("| Metric | Type | Labels | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, d := range MetricsReference() {
		labels := d.Labels
		if labels == "" {
			labels = "—"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", d.Name, d.Type, labels, d.Desc)
	}
	return b.String()
}

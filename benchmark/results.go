package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.  Samples is how many measurements it
// summarizes; Valid is set on tail percentiles and says whether at least
// minBeyond samples lie beyond the percentile.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Valid   *bool   `json:"valid,omitempty"`
}

// runResult is one workload's run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Errors    []string          `json:"errors,omitempty"`

	// RefMS is the run's median reference-loop time; an end-to-end time
	// metric's measured value is its reported value × RefMS / refNominalMS.
	RefMS float64 `json:"ref_ms"`
}

// meta identifies what and where a result file measured.
type meta struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Segments   int     `json:"segments"` // daemons booted per workload
	WarmupS    float64 `json:"warmup_s"` // per daemon
	WindowS    float64 `json:"window_s"` // per workload, over all its daemons
	Date       string  `json:"date"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta meta        `json:"meta"`
	Runs []runResult `json:"runs"`
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// Metric names, in print order.  BENCHMARK.json lists the same names; a
// test keeps the two in step.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"req_p50_ms", "ms"},
		{"req_p95_ms", "ms"},
		{"write_p50_ms", "ms"},
		{"req_per_s", "1/s"},
		{"us_per_matched_dev", "us"},
		{"rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"server.service_ms.req", "ms"},
		{"server.service_ms.write", "ms"},
		{"server.transport_ms.req", "ms"},
		{"server.transport_ms.write", "ms"},
		{"server.unattributed_ms.req", "ms"},
		{"server.unattributed_ms.write", "ms"},
		{"server.queue_wait_ms.req", "ms"},
		{"server.resp_kb.req", "KB"},
		{"store.persist_ms.write", "ms"},
		{"store.put_ms", "ms"},
		{"store.apply_edits_ms", "ms"},
		{"netlist.parse_ms", "ms"},
		{"csr.build_ms", "ms"},
		{"csr.patch_ms", "ms"},
		{"csr.rebuilds", "count"},
		{"core.find_ms", "ms"},
		{"core.phase1_ms", "ms"},
		{"core.phase2_ms", "ms"},
		{"core.candidates", "count"},
		{"core.instances", "count"},
		{"core.cv_precision", "ratio"},
		{"core.guesses", "count"},
		{"core.backtracks", "count"},
		{"core.region_avg_ball", "count"},
		{"core.phase2_us_per_candidate", "us"},
		{"core.us_per_matched_dev", "us"},
		{"core.capture_overhead_pct", "%"},
		{"core.find_incremental_ms", "ms"},
		{"core.replayed", "count"},
		{"core.recomputed", "count"},
		{"core.replay_ratio", "ratio"},
		{"core.us_per_matched_dev.rand1000", "us"},
		{"core.us_per_matched_dev.rand2000", "us"},
		{"core.us_per_matched_dev.rand4000", "us"},
		{"core.e5_drift", "ratio"},
		{"sweep.run_ms.w1", "ms"},
		{"sweep.run_ms.w2", "ms"},
		{"sweep.workers_speedup", "ratio"},
		{"sweep.init_labels_ms", "ms"},
		{"sweep.deduped", "count"},
		{"delta.apply_ms", "ms"},
		{"delta.compose_ms", "ms"},
		{"delta.result_cache_hit_ratio", "ratio"},
		{"jobs.polls", "count"},
		{"extract.cells_ms", "ms"},
		{"obs.trace_overhead_pct", "%"},
	}
)

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	panic("unknown metric " + name) // names are compile-time constants
}

// byRole returns the latencies in ms of the ops with the given role.
func byRole(ops []op, role string) []float64 {
	var xs []float64
	for _, o := range ops {
		if o.role == role {
			xs = append(xs, ms(o.lat))
		}
	}
	return xs
}

// e2eMetrics summarizes a measured window.  A tail percentile with fewer
// than minBeyond samples beyond it is an error: the window was too short.
// Times are multiplied by scale, the ratio of the nominal to the measured
// machine speed, and rates divided by it (machine.go).  rss_mb is the
// median of the RSS samples rather than the peak: the peak depends on
// where garbage collections fall relative to the largest uploads, and
// varies far more from run to run.
func e2eMetrics(ops []op, window time.Duration, setups, rss []float64, scale float64) (map[string]metric, error) {
	req, write := byRole(ops, roleReq), byRole(ops, roleWrite)
	if len(req) == 0 || len(write) == 0 {
		return nil, fmt.Errorf("window recorded %d requests and %d writes; both must be non-zero", len(req), len(write))
	}
	p95, valid := percentile(req, 0.95)
	if !valid {
		return nil, fmt.Errorf("req_p95_ms rests on %d samples; a p95 needs %d beyond it (lengthen the window)", len(req), minBeyond)
	}
	var latUS float64
	matched := 0
	for _, o := range ops {
		if o.role == roleReq {
			latUS += us(o.lat)
			matched += o.matched
		}
	}
	m := map[string]metric{
		"setup_s":            {Value: scale * median(setups), Samples: len(setups)},
		"req_p50_ms":         {Value: scale * median(req), Samples: len(req)},
		"req_p95_ms":         {Value: scale * p95, Samples: len(req), Valid: &valid},
		"write_p50_ms":       {Value: scale * median(write), Samples: len(write)},
		"req_per_s":          {Value: float64(len(req)) / window.Seconds() / scale, Samples: len(req)},
		"us_per_matched_dev": {Value: scale * latUS / float64(max(matched, 1)), Samples: len(req)},
		"rss_mb":             {Value: median(rss), Samples: len(rss)},
	}
	return withUnits(m), nil
}

// layerMetrics combines the traced window's timelines, the plain window's
// latencies and the in-process pass into the per-layer metrics.
func layerMetrics(plain, traced []op, attrs []attribution, inproc layerOut) (map[string]metric, error) {
	m := map[string]metric{}
	for _, role := range []string{roleReq, roleWrite} {
		var service, transport, unattributed, queue, persist []float64
		for _, a := range attrs {
			if a.role != role {
				continue
			}
			service = append(service, a.serviceMS)
			transport = append(transport, a.clientMS-a.serviceMS)
			unattributed = append(unattributed, a.unattributedMS)
			queue = append(queue, a.queueWaitMS)
			persist = append(persist, a.persistMS)
		}
		if len(service) == 0 {
			return nil, fmt.Errorf("no %s timeline was read back from the flight recorder", role)
		}
		n := len(service)
		m["server.service_ms."+role] = metric{Value: median(service), Samples: n}
		m["server.transport_ms."+role] = metric{Value: median(transport), Samples: n}
		m["server.unattributed_ms."+role] = metric{Value: median(unattributed), Samples: n}
		if role == roleReq {
			m["server.queue_wait_ms.req"] = metric{Value: mean(queue), Samples: n}
		} else {
			m["store.persist_ms.write"] = metric{Value: median(persist), Samples: n}
		}
	}
	var kb, polls []float64
	replays := 0
	for _, o := range traced {
		if o.role == roleReq {
			kb = append(kb, float64(o.bytes)/1024)
			polls = append(polls, float64(o.polls))
			if o.replay {
				replays++
			}
		}
	}
	m["server.resp_kb.req"] = metric{Value: mean(kb), Samples: len(kb)}
	m["jobs.polls"] = metric{Value: mean(polls), Samples: len(polls)}
	m["delta.result_cache_hit_ratio"] = metric{Value: float64(replays) / float64(max(len(kb), 1)), Samples: len(kb)}
	plainReq, tracedReq := byRole(plain, roleReq), byRole(traced, roleReq)
	m["obs.trace_overhead_pct"] = metric{Value: 100 * (median(tracedReq)/median(plainReq) - 1), Samples: len(tracedReq)}
	for name, v := range inproc {
		m[name] = v
	}
	for _, pm := range perLayer {
		v, ok := m[pm.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pm.name)
		}
	}
	return withUnits(m), nil
}

func withUnits(m map[string]metric) map[string]metric {
	for name, v := range m {
		v.Unit = unitOf(name)
		m[name] = v
	}
	return m
}

// printRow writes one workload's metrics as a single line.
func printRow(w io.Writer, r runResult) {
	names := make([]string, 0, len(r.Metrics))
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if _, ok := r.Metrics[m.name]; ok {
				names = append(names, m.name)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s correct=%v attempted=%d failed=%d ref_ms=%.4g", r.Workload, r.Correct, r.Attempted, r.Failed, r.RefMS)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Fprintf(&b, " %s=%.4g(%s, n=%d", name, v.Value, v.Unit, v.Samples)
		if v.Valid != nil && !*v.Valid {
			b.WriteString(",invalid")
		}
		b.WriteString(")")
	}
	fmt.Fprintln(w, b.String())
}

// collectMeta describes the machine and checkout a result file came from.
func collectMeta(root string, seed int64, window time.Duration) meta {
	m := meta{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        "unknown",
		Seed:       seed,
		Segments:   segments,
		WarmupS:    segmentWarm.Seconds(),
		WindowS:    window.Seconds(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

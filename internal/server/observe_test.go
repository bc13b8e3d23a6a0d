package server

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsHistogramsAndPatternCounters drives a few matches through the
// daemon and checks the observability series added on top of the flat
// counters: per-phase duration histograms and pattern-labeled candidate
// outcome counters.
func TestMetricsHistogramsAndPatternCounters(t *testing.T) {
	s, want := newAdderServer(t, nil)
	const runs = 3
	for i := 0; i < runs; i++ {
		if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); rec.Code != http.StatusOK {
			t.Fatalf("match %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec := do(t, s, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	m := parseMetrics(t, rec.Body.String())

	for _, phase := range []string{"phase1", "phase2"} {
		count := m["subgeminid_match_"+phase+"_seconds_count"]
		if count != runs {
			t.Errorf("%s histogram count = %v, want %d", phase, count, runs)
		}
		if inf := m["subgeminid_match_"+phase+"_seconds_bucket{le=\"+Inf\"}"]; inf != runs {
			t.Errorf("%s +Inf bucket = %v, want %d", phase, inf, runs)
		}
		// Buckets are cumulative: each le series must be monotone and the
		// widest finite bucket must hold every sub-10s run.
		prev := 0.0
		for _, le := range []string{"1e-05", "0.0001", "0.001", "0.01", "0.1", "1", "10"} {
			key := "subgeminid_match_" + phase + `_seconds_bucket{le="` + le + `"}`
			v, ok := m[key]
			if !ok {
				t.Fatalf("missing histogram series %s\n%s", key, rec.Body.String())
			}
			if v < prev {
				t.Errorf("%s not monotone at le=%s: %v < %v", phase, le, v, prev)
			}
			prev = v
		}
		if prev != runs {
			t.Errorf("%s le=10 bucket = %v, want %d (runs faster than 10s)", phase, prev, runs)
		}
	}

	pc := func(name string) float64 { return m[`subgeminid_pattern_`+name+`_total{pattern="FA"}`] }
	if pc("runs") != runs {
		t.Errorf("pattern runs = %v, want %d", pc("runs"), runs)
	}
	if pc("instances") != float64(runs*want) {
		t.Errorf("pattern instances = %v, want %d", pc("instances"), runs*want)
	}
	if pc("candidates_matched") == 0 {
		t.Error("pattern candidates_matched = 0, want > 0")
	}
	if pc("candidates_matched")+pc("candidates_failed") != pc("candidates") {
		t.Errorf("matched %v + failed %v != candidates %v",
			pc("candidates_matched"), pc("candidates_failed"), pc("candidates"))
	}
}

// TestPatternLabelsBounded: an inline pattern takes its name from its
// .SUBCKT, so requests choose the match series' pattern labels.  The
// match families cap them as the sweep families do: 64 names, the rest
// under "_other", and every run counted under exactly one label.
func TestPatternLabelsBounded(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	const patterns = 100
	for i := 0; i < patterns; i++ {
		src := strings.Replace(invPattern, "MYINV", fmt.Sprintf("INV%03d", i), 1)
		if rec := do(t, s, "POST", "/v1/match", MatchRequest{Netlist: src}); rec.Code != http.StatusOK {
			t.Fatalf("inline pattern %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	m := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	const prefix = `subgeminid_pattern_runs_total{pattern="`
	labels, runs := 0, 0.0
	for name, v := range m {
		if strings.HasPrefix(name, prefix) {
			labels++
			runs += v
		}
	}
	if want := maxPatternLabels + 1; labels != want {
		t.Errorf("%d pattern labels, want %d (%d names and _other)", labels, want, maxPatternLabels)
	}
	if other := m[prefix+`_other"}`]; other != patterns-maxPatternLabels {
		t.Errorf("_other runs = %v, want %d", other, patterns-maxPatternLabels)
	}
	if total := m["subgeminid_match_runs_total"]; runs != total || total != patterns {
		t.Errorf("labelled runs sum to %v, subgeminid_match_runs_total %v, want both %d", runs, total, patterns)
	}
}

// TestPprofEndpoints checks that the Go profiling handlers are mounted on
// the daemon mux (index page plus a named profile and the cmdline probe).
func TestPprofEndpoints(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
	} {
		rec := do(t, s, "GET", path, nil)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	if rec := do(t, s, "GET", "/debug/pprof/", nil); !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}
}

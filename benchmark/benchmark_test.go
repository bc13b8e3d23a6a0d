package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"subgemini/internal/delta"
)

func TestPercentileValidity(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		p     float64
		want  float64
		valid bool
	}{
		{199, 0.95, 190, false}, // 9 samples beyond rank 190
		{200, 0.95, 190, true},  // 10 beyond: the smallest valid p95
		{1000, 0.95, 950, true},
		{20, 0.5, 10, true},
		{1, 0.5, 1, false},
	} {
		got, valid := percentile(seq(tc.n), tc.p)
		if got != tc.want || valid != tc.valid {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, valid, tc.want, tc.valid)
		}
	}
	if _, valid := percentile(nil, 0.5); valid {
		t.Error("percentile of no samples is valid")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, including its extrapolation on two
// points.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

// TestE2EMetricsScale checks that the machine-speed scale multiplies every
// time metric, divides the rate, and leaves memory alone.
func TestE2EMetricsScale(t *testing.T) {
	var ops []op
	for i := 1; i <= 300; i++ {
		ops = append(ops, op{role: roleReq, lat: time.Duration(i) * time.Millisecond, matched: 10})
	}
	ops = append(ops, op{role: roleWrite, lat: 40 * time.Millisecond})
	setups, rss := []float64{0.004, 0.005, 0.006}, []float64{30, 31, 32}
	base, err := e2eMetrics(ops, 10*time.Second, setups, rss, 1)
	if err != nil {
		t.Fatal(err)
	}
	scaled, err := e2eMetrics(ops, 10*time.Second, setups, rss, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		want := base[m.name].Value
		switch m.unit {
		case "s", "ms", "us":
			want *= 2
		case "1/s":
			want /= 2
		}
		if got := scaled[m.name].Value; math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("%s at scale 2 = %v, want %v (scale 1 gives %v)", m.name, got, want, base[m.name].Value)
		}
	}
}

func TestInputsDeterministic(t *testing.T) {
	texts := func(seed int64) (match, extract []string, eco string) {
		t.Helper()
		rs, err := matchRandInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rs {
			match = append(match, c.text)
		}
		xs, err := extractPool(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range xs {
			extract = append(extract, c.text)
		}
		p, err := ecoInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal([]any{p.circuit.text, p.apply, p.revert, p.expect})
		return match, extract, string(b)
	}
	m1, x1, e1 := texts(7)
	m2, x2, e2 := texts(7)
	if !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(x1, x2) || e1 != e2 {
		t.Fatal("the same seed gave different netlists or edit scripts")
	}
	m3, x3, e3 := texts(8)
	for i := range m1 {
		if m1[i] == m3[i] {
			t.Errorf("match-rand variant %d is the same for seeds 7 and 8", i)
		}
	}
	if x1[0] == x3[0] || x1[1] == x3[1] {
		t.Error("extract-jobs random-logic netlists are the same for seeds 7 and 8")
	}
	if e1 == e3 {
		t.Error("eco-patch circuit and edit script are the same for seeds 7 and 8")
	}
}

// TestEcoExpectMirrors replays two periods of eco-patch's PATCH schedule on
// an in-process mirror of the daemon's circuit, as the daemon applies them,
// and checks every scheduled re-match count against the precomputed
// oracle, and that each revert restores the original shape.
func TestEcoExpectMirrors(t *testing.T) {
	p, err := ecoInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.circuit.parse()
	if err != nil {
		t.Fatal(err)
	}
	devs, nets := g.NumDevices(), g.NumNets()
	for i := 0; i < 2*ecoPeriod; i++ {
		ops, pat := p.step(i)
		if _, err := delta.Apply(g, uint64(i+2), ops); err != nil {
			t.Fatalf("PATCH %d: %v", i, err)
		}
		got, err := findCounts(g, []string{pat})
		if err != nil {
			t.Fatal(err)
		}
		if want := p.expect[i%ecoPeriod]; got[pat] != want {
			t.Errorf("re-match %d (%s): mirror finds %d, oracle says %d", i, pat, got[pat], want)
		}
		if i%2 == 1 && (g.NumDevices() != devs || g.NumNets() != nets) {
			t.Errorf("after revert %d: %d devices %d nets, want %d %d", i, g.NumDevices(), g.NumNets(), devs, nets)
		}
	}
	edited := 0
	for i := 0; i < ecoPeriod; i += 2 {
		_, pat := p.step(i)
		if p.expect[i] != p.circuit.expect[pat] {
			edited++
		}
	}
	if edited == 0 {
		t.Error("no edit batch changes any scheduled count; the oracle cannot tell the states apart")
	}
}

// TestCensusExceptions pins where sweep-tiled's oracle departs from the
// generator's census: only BUF, only in designs that place DFFs.
func TestCensusExceptions(t *testing.T) {
	pool, err := tiledPool(1)
	if err != nil {
		t.Fatal(err)
	}
	exceptions, err := sweepExpect(pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(exceptions) == 0 {
		t.Fatal("no census exceptions; drop the re-basing in sweepExpect")
	}
	dff := map[string]bool{}
	for _, c := range pool {
		dff[c.name] = c.placed["DFF"] > 0
	}
	for _, e := range exceptions {
		design, pat, _ := strings.Cut(e, "/")
		if pat != "BUF" || !dff[design] {
			t.Errorf("unexpected census exception %s", e)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := boundSpec{Name: "req_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundSpec{Name: "req_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name       string
		base, next []float64
		b          boundSpec
		want       string
	}{
		{"within bound", tight, []float64{105, 106, 104}, lower, verdictSame},
		{"slower", tight, []float64{115, 116, 114}, lower, verdictWorse},
		{"faster", tight, []float64{85, 86, 84}, lower, verdictBetter},
		{"lower throughput", tight, []float64{85, 86, 84}, higher, verdictWorse},
		{"higher throughput", tight, []float64{115, 116, 114}, higher, verdictBetter},
		{"noisy base", []float64{60, 100, 140, 80, 120}, []float64{100}, lower, verdictUnresolved},
		{"noisy base, every new run better", []float64{60, 100, 140, 80, 120}, []float64{50, 55}, lower, verdictBetter},
		{"too few base runs", []float64{100, 100}, []float64{200}, lower, verdictUnresolved},
	} {
		if got := verdict(tc.base, tc.next, tc.b); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		f := resultFile{Runs: []runResult{{Workload: "match-rand", Metrics: map[string]metric{
			"req_p50_ms": {Value: p50, Unit: "ms"},
		}}}}
		b, _ := json.Marshal(f)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := []string{write("a.json", 20), write("b.json", 20.4), write("c.json", 19.8)}
	same, slow := write("same.json", 20.2), write("slow.json", 30)
	var out strings.Builder
	if code := compareMain("../BENCHMARK.json", append(base, "--", same), &out, &out); code != 0 {
		t.Errorf("same-commit compare exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain("../BENCHMARK.json", append(base, "--", slow), &out, &out); code != 1 || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("regression compare exited %d:\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain("../BENCHMARK.json", []string{base[0], "--", same}, &out, &out); code != 1 || !strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("single-run compare exited %d:\n%s", code, out.String())
	}
	if code := compareMain("../BENCHMARK.json", base, &out, &out); code != 2 {
		t.Errorf("compare without -- exited %d, want 2", code)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []boundSpec `json:"end_to_end"`
		PerLayer  []boundSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if wl := workloadByName(w.Name); wl == nil || wl.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and workloads.go disagree", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(names), len(workloads))
	}
	check := func(kind string, got []boundSpec, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
}

// TestSmoke runs every workload for one second against the real daemon and
// requires every response to pass its oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildDaemon(root, work)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		p, err := wl.prepare(5)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		d, _, err := boot(bin, work, true, p, wl.clients)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		var r runResult
		ops := r.absorb(drive(d.h, p, wl.clients, 0, time.Second))
		attrs, missing, err := fetchTimelines(d.h, ops)
		if err != nil || missing > 0 || len(attrs) != len(ops) {
			t.Errorf("%s: read back %d of %d timelines (%d missing): %v", wl.name, len(attrs), len(ops), missing, err)
		}
		if err := d.stop(); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
		if r.Failed > 0 || len(ops) == 0 {
			t.Errorf("%s: %d of %d ops failed, %d measured: %v", wl.name, r.Failed, r.Attempted, len(ops), r.Errors)
		}
	}
	// The extract pool's census check holds for every tiled design in it.
	pool, err := extractPool(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range pool {
		for cell, n := range c.placed {
			if c.expect[cell] != n {
				t.Errorf("%s: extraction finds %d %s, census places %d", c.name, c.expect[cell], cell, n)
			}
		}
	}
}

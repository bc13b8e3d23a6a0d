package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"subgemini/internal/gen"
	"subgemini/internal/obs"
	"subgemini/internal/stdcell"
)

// rails are the special signals every generated workload uses.
var rails = []string{"VDD", "GND"}

// nandNetlist is a tiny main circuit: one NAND2 feeding one INV.
const nandNetlist = `
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
MP3 z y VDD pmos
MN3 z y GND nmos
.END
`

// invPattern is an inline pattern source for upload-by-use tests.
const invPattern = `
.GLOBAL VDD GND
.SUBCKT MYINV A Y
MP1 Y A VDD pmos
MN1 Y A GND nmos
.ENDS
`

// mustNew builds a server, failing the test on a boot error and closing
// the server (draining its job workers) when the test ends.
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s
}

func newAdderServer(t *testing.T, mut func(*Config)) (*Server, int) {
	t.Helper()
	d := gen.RippleAdder(8)
	cfg := Config{Circuit: d.C, Globals: rails}
	if mut != nil {
		mut(&cfg)
	}
	return mustNew(t, cfg), d.Expected(stdcell.FA)
}

// do issues one request against the server.  A string body is sent raw; any
// other non-nil body is marshalled as JSON.
func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	switch b := body.(type) {
	case nil:
		rd = strings.NewReader("")
	case string:
		rd = strings.NewReader(b)
	default:
		js, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(js))
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeMatch(t *testing.T, rec *httptest.ResponseRecorder) *MatchResponse {
	t.Helper()
	var resp MatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("invalid match response: %v\n%s", err, rec.Body.String())
	}
	return &resp
}

func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	m := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("metrics line %q is not name value", sc.Text())
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", sc.Text(), err)
		}
		m[name] = f
	}
	return m
}

func TestMatchBuiltinCellAndCacheHit(t *testing.T) {
	s, want := newAdderServer(t, nil)
	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeMatch(t, rec)
	if resp.Count != want {
		t.Errorf("found %d FA instances, want %d", resp.Count, want)
	}
	if resp.CacheHit {
		t.Error("first use of FA reported a cache hit")
	}
	if resp.Stats.CVSize == 0 || resp.Stats.Phase1Passes == 0 {
		t.Errorf("stats not populated: %+v", resp.Stats)
	}
	if len(resp.Instances) != want || len(resp.Instances[0].Devices) == 0 {
		t.Errorf("instance mappings missing: %d instances", len(resp.Instances))
	}

	rec = do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
	if rec.Code != http.StatusOK {
		t.Fatalf("second match: status %d", rec.Code)
	}
	if resp := decodeMatch(t, rec); !resp.CacheHit {
		t.Error("second use of FA was not a cache hit")
	}
}

func TestMatchParallelWorkersAgreesWithSequential(t *testing.T) {
	s, want := newAdderServer(t, nil)
	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA", Workers: 4})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Count != want {
		t.Errorf("parallel found %d, want %d", resp.Count, want)
	}
}

func TestMatchValidation(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	cases := []struct {
		req  MatchRequest
		code int
	}{
		{MatchRequest{}, http.StatusBadRequest},              // no pattern
		{MatchRequest{Pattern: "NOPE"}, http.StatusNotFound}, // unknown
		{MatchRequest{Pattern: "FA", Workers: 2, NonOverlap: true}, http.StatusBadRequest},
		{MatchRequest{Pattern: "FA", Workers: 2, Max: 3}, http.StatusBadRequest},
		{MatchRequest{Netlist: "garbage\n"}, http.StatusBadRequest}, // bad inline pattern
	}
	for _, c := range cases {
		if rec := do(t, s, "POST", "/v1/match", c.req); rec.Code != c.code {
			t.Errorf("%+v: status %d, want %d (%s)", c.req, rec.Code, c.code, rec.Body.String())
		}
	}
	if rec := do(t, s, "POST", "/v1/match", "{not json"); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", rec.Code)
	}
}

func TestBatch(t *testing.T) {
	s, want := newAdderServer(t, nil)
	rec := do(t, s, "POST", "/v1/match/batch", BatchRequest{Requests: []MatchRequest{
		{Pattern: "FA"},
		{Pattern: "FA", Workers: 2},
		{Pattern: "NOPE"},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results, want 3", len(resp.Results))
	}
	for _, i := range []int{0, 1} {
		r := resp.Results[i]
		if r.Status != http.StatusOK || r.Match == nil || r.Match.Count != want {
			t.Errorf("item %d: status=%d match=%+v, want %d instances", i, r.Status, r.Match, want)
		}
	}
	if r := resp.Results[2]; r.Status != http.StatusNotFound || r.Error == "" {
		t.Errorf("item 2: status=%d error=%q, want 404", r.Status, r.Error)
	}

	if rec := do(t, s, "POST", "/v1/match/batch", BatchRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", rec.Code)
	}
}

// TestTimeoutReturns504AndDaemonStaysHealthy: a request that exceeds its
// deadline is answered 504, counted in the metrics, and does not poison
// later requests.
func TestTimeoutReturns504AndDaemonStaysHealthy(t *testing.T) {
	s, want := newAdderServer(t, nil)
	// Every cancellation poll (one per Phase II candidate) takes 5ms, so a
	// 1ms deadline expires deterministically on the first candidate.
	s.testCandidateHook = func() { time.Sleep(5 * time.Millisecond) }

	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA", TimeoutMS: 1})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}

	// The daemon keeps serving: same match with a generous deadline.
	rec = do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA", TimeoutMS: 10_000})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-timeout match: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Count != want {
		t.Errorf("post-timeout match found %d, want %d", resp.Count, want)
	}

	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_requests_timeouts_total"] != 1 {
		t.Errorf("timeouts_total = %v, want 1", met["subgeminid_requests_timeouts_total"])
	}
}

// TestAdmissionControl: with one match slot occupied, a second request is
// turned away with 503 once its deadline expires, and the slot holder
// still completes.
func TestAdmissionControl(t *testing.T) {
	s, want := newAdderServer(t, func(c *Config) { c.MaxConcurrent = 1 })
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testCandidateHook = func() {
		once.Do(func() { close(started) })
		<-release
	}

	type result struct {
		code int
		body string
	}
	first := make(chan result, 1)
	go func() {
		rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
		first <- result{rec.Code, rec.Body.String()}
	}()
	<-started

	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "INV", TimeoutMS: 50})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated request: status %d, want 503: %s", rec.Code, rec.Body.String())
	}

	close(release)
	if r := <-first; r.code != http.StatusOK {
		t.Fatalf("slot holder: status %d: %s", r.code, r.body)
	}
	if resp := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); resp.Code != http.StatusOK {
		t.Errorf("post-saturation match: status %d", resp.Code)
	} else if decodeMatch(t, resp).Count != want {
		t.Errorf("post-saturation count wrong")
	}
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_requests_rejected_total"] != 1 {
		t.Errorf("rejected_total = %v, want 1", met["subgeminid_requests_rejected_total"])
	}
}

func TestCircuitUploadAndInlinePattern(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})

	// No circuit yet: matching is a 409.
	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "NAND2"}); rec.Code != http.StatusConflict {
		t.Fatalf("no-circuit match: status %d, want 409", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/circuit", nil); rec.Code != http.StatusNotFound {
		t.Errorf("no-circuit info: status %d, want 404", rec.Code)
	}

	// Upload the circuit, then match a built-in cell against it.
	rec := do(t, s, "POST", "/v1/circuit?name=chip", nandNetlist)
	if rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body.String())
	}
	var info CircuitInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "chip" || info.Devices != 6 {
		t.Errorf("upload info = %+v, want chip with 6 devices", info)
	}
	rec = do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "NAND2"})
	if rec.Code != http.StatusOK {
		t.Fatalf("match after upload: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Count != 1 {
		t.Errorf("NAND2 count = %d, want 1", resp.Count)
	}

	// Inline pattern: compiled, matched, and cached under its name.
	rec = do(t, s, "POST", "/v1/match", MatchRequest{Netlist: invPattern})
	if rec.Code != http.StatusOK {
		t.Fatalf("inline pattern: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Pattern != "MYINV" || resp.Count != 1 {
		t.Errorf("inline pattern matched %q ×%d, want MYINV ×1", resp.Pattern, resp.Count)
	}
	rec = do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "MYINV"})
	if rec.Code != http.StatusOK || !decodeMatch(t, rec).CacheHit {
		t.Errorf("cached inline pattern: status %d, want 200 with a cache hit", rec.Code)
	}

	// The cells listing shows both the built-ins and the upload.
	rec = do(t, s, "GET", "/v1/cells", nil)
	var cells []cellInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &cells); err != nil {
		t.Fatal(err)
	}
	found := map[string]string{}
	for _, c := range cells {
		found[c.Name] = c.Source
	}
	if found["NAND2"] != sourceBuiltin || found["MYINV"] != sourceUploaded {
		t.Errorf("cells listing wrong: %v", found)
	}
}

func TestCircuitUploadErrors(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.MaxBodyBytes = 256 })
	cases := []struct {
		body string
		code int
	}{
		{"this is not\na netlist\n", http.StatusBadRequest},
		{".SUBCKT A x\nMN1 x x GND nmos\n.ENDS\n", http.StatusBadRequest}, // no top-level cards
		{strings.Repeat("* padding comment line\n", 100), http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		if rec := do(t, s, "POST", "/v1/circuit", c.body); rec.Code != c.code {
			t.Errorf("upload %q...: status %d, want %d (%s)", c.body[:12], rec.Code, c.code, rec.Body.String())
		}
	}
	// The resident circuit survived every failed upload.
	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); rec.Code != http.StatusOK {
		t.Errorf("match after failed uploads: status %d", rec.Code)
	}
}

func TestMetricsAccounting(t *testing.T) {
	s, want := newAdderServer(t, nil)
	for i := 0; i < 2; i++ {
		if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); rec.Code != http.StatusOK {
			t.Fatalf("match %d: status %d", i, rec.Code)
		}
	}
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	checks := map[string]float64{
		"subgeminid_match_runs_total":           2,
		"subgeminid_match_instances_total":      float64(2 * want),
		"subgeminid_pattern_cache_hits_total":   1,
		"subgeminid_pattern_cache_misses_total": 1,
		"subgeminid_pattern_cache_hit_rate":     0.5,
		"subgeminid_matches_inflight":           0,
		"subgeminid_requests_errors_total":      0,
	}
	for name, want := range checks {
		if got, ok := met[name]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", name, got, ok, want)
		}
	}
	if met["subgeminid_requests_total"] < 3 {
		t.Errorf("requests_total = %v, want >= 3", met["subgeminid_requests_total"])
	}
	if met["subgeminid_match_phase1_passes_total"] <= 0 || met["subgeminid_match_candidates_total"] <= 0 {
		t.Errorf("phase counters not aggregated: %v", met)
	}
	if met["subgeminid_circuit_devices"] <= 0 {
		t.Errorf("circuit gauge missing: %v", met)
	}
}

func TestPreloadBuiltins(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.PreloadBuiltins = true })
	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !decodeMatch(t, rec).CacheHit {
		t.Error("preloaded cell was not a cache hit on first use")
	}
	c := s.cache.counters()
	if c.hits != 1 || c.misses != 0 {
		t.Errorf("hits=%d misses=%d after preload, want 1/0", c.hits, c.misses)
	}
	if c.size < 20 {
		t.Errorf("cache size %d after preload, want the whole library", c.size)
	}
}

func TestPanicRecovery(t *testing.T) {
	var logged []string
	s, want := newAdderServer(t, func(c *Config) {
		c.Log = obs.LogfLogger(func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) })
	})
	s.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	if rec := do(t, s, "GET", "/boom", nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "boom") {
		t.Errorf("panic was not logged: %v", logged)
	}
	// The daemon is still alive.
	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); rec.Code != http.StatusOK {
		t.Fatalf("post-panic match: status %d", rec.Code)
	} else if decodeMatch(t, rec).Count != want {
		t.Error("post-panic match wrong")
	}
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_requests_errors_total"] != 1 {
		t.Errorf("errors_total = %v, want 1", met["subgeminid_requests_errors_total"])
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newAdderServer(t, nil)
	rec := do(t, s, "GET", "/healthz", nil)
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Errorf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}

// TestConcurrentMatchesAndUploads drives many requests in parallel — single
// matches with and without per-request globals and workers, batches, cache
// fills, metrics scrapes, and circuit re-uploads — to exercise the locking
// under the race detector.
func TestConcurrentMatchesAndUploads(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.MaxConcurrent = 4 })
	patterns := []string{"FA", "INV", "NAND2", "XOR2", "MUX2"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch i % 4 {
				case 0:
					req := MatchRequest{Pattern: patterns[(w+i)%len(patterns)], Globals: rails}
					if rec := do(t, s, "POST", "/v1/match", req); rec.Code != http.StatusOK {
						t.Errorf("match: status %d: %s", rec.Code, rec.Body.String())
					}
				case 1:
					req := MatchRequest{Pattern: patterns[(w+i)%len(patterns)], Workers: 2}
					if rec := do(t, s, "POST", "/v1/match", req); rec.Code != http.StatusOK {
						t.Errorf("parallel match: status %d", rec.Code)
					}
				case 2:
					b := BatchRequest{Requests: []MatchRequest{{Pattern: "FA"}, {Pattern: "INV"}}}
					if rec := do(t, s, "POST", "/v1/match/batch", b); rec.Code != http.StatusOK {
						t.Errorf("batch: status %d", rec.Code)
					}
				case 3:
					do(t, s, "GET", "/metrics", nil)
					do(t, s, "GET", "/v1/cells", nil)
				}
			}
		}(w)
	}
	// One writer swapping the circuit while matches are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			rec := do(t, s, "POST", "/v1/circuit?name=chip", nandNetlist)
			if rec.Code != http.StatusOK {
				t.Errorf("upload: status %d", rec.Code)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
}

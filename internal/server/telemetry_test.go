package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"subgemini/internal/faults"
	"subgemini/internal/obs"
)

// doWithHeader is do() plus request headers.
func doWithHeader(t *testing.T, h http.Handler, method, path string, body any, hdr map[string]string) *httptest.ResponseRecorder {
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
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// debugList fetches and decodes GET /debug/requests.
func debugList(t *testing.T, s *Server, query string) []obs.TimelineJSON {
	t.Helper()
	rec := do(t, s, "GET", "/debug/requests"+query, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests%s: status %d: %s", query, rec.Code, rec.Body.String())
	}
	var body struct {
		Count    int                `json:"count"`
		Requests []obs.TimelineJSON `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("invalid list body: %v\n%s", err, rec.Body.String())
	}
	return body.Requests
}

// debugFind fetches and decodes GET /debug/requests/{id}.
func debugFind(t *testing.T, s *Server, id string) []obs.TimelineJSON {
	t.Helper()
	rec := do(t, s, "GET", "/debug/requests/"+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /debug/requests/%s: status %d: %s", id, rec.Code, rec.Body.String())
	}
	var body struct {
		RequestID string             `json:"request_id"`
		Timelines []obs.TimelineJSON `json:"timelines"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("invalid detail body: %v\n%s", err, rec.Body.String())
	}
	return body.Timelines
}

// TestRequestIDMintAndEcho: every response carries X-Request-Id; a valid
// inbound ID is honored, a malformed one is discarded and re-minted.
func TestRequestIDMintAndEcho(t *testing.T) {
	s, _ := newAdderServer(t, nil)

	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
	if rec.Code != http.StatusOK {
		t.Fatalf("match: status %d: %s", rec.Code, rec.Body.String())
	}
	if id := rec.Header().Get("X-Request-Id"); id == "" {
		t.Error("200 response has no X-Request-Id header")
	}

	rec = doWithHeader(t, s, "GET", "/healthz", nil, map[string]string{"X-Request-Id": "trace-me-42"})
	if got := rec.Header().Get("X-Request-Id"); got != "trace-me-42" {
		t.Errorf("inbound ID echoed as %q, want trace-me-42", got)
	}

	rec = doWithHeader(t, s, "GET", "/healthz", nil, map[string]string{"X-Request-Id": "bad id with junk!"})
	got := rec.Header().Get("X-Request-Id")
	if got == "" || strings.ContainsAny(got, " !") {
		t.Errorf("malformed inbound ID handled as %q, want a re-minted clean ID", got)
	}
}

// TestRequestIDOnErrorResponses: the header is present on shed 429s and on
// fault-injected 503s too — the failure paths are exactly where the ID is
// needed.
func TestRequestIDOnErrorResponses(t *testing.T) {
	defer faults.Reset()
	// A 1-byte heap budget sheds every bulk request deterministically.
	s, _ := newAdderServer(t, func(c *Config) {
		c.ShedMemoryBytes = 1
		c.FlightSampleN = 1
	})

	rec := do(t, s, "POST", "/v1/match/batch", BatchRequest{Requests: []MatchRequest{{Pattern: "FA"}}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("batch under memory shed: status %d, want 429", rec.Code)
	}
	shedID := rec.Header().Get("X-Request-Id")
	if shedID == "" {
		t.Error("429 response has no X-Request-Id header")
	}

	faults.Arm("server.handler", faults.Spec{Mode: faults.ModeError, Count: 1})
	rec = do(t, s, "GET", "/v1/circuits", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("fault-injected request: status %d, want 503", rec.Code)
	}
	faultID := rec.Header().Get("X-Request-Id")
	if faultID == "" {
		t.Error("503 response has no X-Request-Id header")
	}

	// Both land in the flight recorder, findable by their IDs.
	for _, id := range []string{shedID, faultID} {
		tls := debugFind(t, s, id)
		if len(tls) != 1 {
			t.Errorf("recorder holds %d timelines for %s, want 1", len(tls), id)
		}
	}
	// The shed one was kept for cause, not sampling, and carries the
	// shed-check span that fired.
	tls := debugFind(t, s, shedID)
	if tls[0].KeepReason != obs.KeepShed {
		t.Errorf("shed timeline kept for %q, want %q", tls[0].KeepReason, obs.KeepShed)
	}
	hasShedCheck := false
	for _, sp := range tls[0].Spans {
		if sp.Kind == obs.KindShedCheck && sp.Attrs["shed"] != "" {
			hasShedCheck = true
		}
	}
	if !hasShedCheck {
		t.Errorf("shed timeline spans %+v carry no shed-check span with a shed reason", tls[0].Spans)
	}
}

// TestDebugRequestsTimeline: given only the X-Request-Id of a match, the
// detail endpoint reconstructs the request's path through the daemon —
// pattern lookup, queue wait, store get, Phase I, Phase II — with
// durations.
func TestDebugRequestsTimeline(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.FlightSampleN = 1 })

	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
	if rec.Code != http.StatusOK {
		t.Fatalf("match: status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get("X-Request-Id")

	tls := debugFind(t, s, id)
	if len(tls) != 1 {
		t.Fatalf("recorder holds %d timelines for %s, want 1", len(tls), id)
	}
	tl := tls[0]
	if tl.Status != http.StatusOK || tl.Method != "POST" || tl.Path != "/v1/match" {
		t.Errorf("timeline header = %+v, want 200 POST /v1/match", tl)
	}
	byKind := map[string]obs.SpanJSON{}
	for _, sp := range tl.Spans {
		if sp.Open {
			t.Errorf("span %s left open", sp.Kind)
		}
		byKind[sp.Kind] = sp
	}
	for _, kind := range []string{obs.KindCacheLookup, obs.KindQueueWait, obs.KindStoreGet, obs.KindPhase1, obs.KindPhase2} {
		if _, ok := byKind[kind]; !ok {
			t.Errorf("timeline has no %s span; spans: %+v", kind, tl.Spans)
		}
	}
	if byKind[obs.KindPhase2].Attrs["candidates"] == "" {
		t.Errorf("phase2 span %+v has no candidates attr", byKind[obs.KindPhase2])
	}

	// Unknown IDs 404.
	if rec := do(t, s, "GET", "/debug/requests/not-recorded", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown ID: status %d, want 404", rec.Code)
	}
}

// TestUploadSpans: a netlist upload reads as parse, then flatten, then
// persist, on the store API and on the legacy single-circuit upload.
func TestUploadSpans(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.FlightSampleN = 1 })
	const src = ".GLOBAL VDD GND\nMP y a VDD pmos\nMN y a GND nmos\n"
	for _, path := range []string{"/v1/circuits/inv", "/v1/circuit?name=inv"} {
		method := "PUT"
		if strings.HasPrefix(path, "/v1/circuit?") {
			method = "POST"
		}
		rec := do(t, s, method, path, src)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		tls := debugFind(t, s, rec.Header().Get("X-Request-Id"))
		if len(tls) != 1 {
			t.Fatalf("%s %s: %d timelines, want 1", method, path, len(tls))
		}
		var kinds []string
		last := int64(-1)
		for _, sp := range tls[0].Spans {
			if sp.Open || sp.StartUS < last {
				t.Errorf("%s %s: span %+v open or out of order", method, path, sp)
			}
			last = sp.StartUS
			kinds = append(kinds, sp.Kind)
		}
		want := []string{obs.KindParse, obs.KindFlatten, obs.KindPersist}
		if strings.Join(kinds, ",") != strings.Join(want, ",") {
			t.Errorf("%s %s: spans %v, want %v", method, path, kinds, want)
		}
	}
}

// TestDebugRequestsFilters: list filtering by path, limit, and outcome.
func TestDebugRequestsFilters(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.FlightSampleN = 1 })

	for i := 0; i < 3; i++ {
		if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); rec.Code != http.StatusOK {
			t.Fatalf("match %d: status %d", i, rec.Code)
		}
	}
	do(t, s, "GET", "/healthz", nil)

	all := debugList(t, s, "")
	if len(all) < 4 {
		t.Fatalf("list holds %d timelines, want >= 4", len(all))
	}
	// Newest first: the /healthz probe leads.
	if all[0].Path != "/healthz" {
		t.Errorf("newest timeline is %s, want /healthz", all[0].Path)
	}

	matches := debugList(t, s, "?path=/v1/match")
	if len(matches) != 3 {
		t.Errorf("path filter returned %d timelines, want 3", len(matches))
	}
	for _, tl := range matches {
		if tl.Path != "/v1/match" {
			t.Errorf("path filter leaked %s", tl.Path)
		}
	}

	if got := debugList(t, s, "?limit=2"); len(got) != 2 {
		t.Errorf("limit=2 returned %d timelines", len(got))
	}
	if got := debugList(t, s, "?outcome=shed"); len(got) != 0 {
		t.Errorf("outcome=shed returned %d timelines, want 0 (nothing shed)", len(got))
	}
}

// TestJobInheritsRequestID: an async job's execution appears in the flight
// recorder under the submitting request's ID — the submit response and the
// job record both carry it, and the detail endpoint returns the HTTP
// timeline plus the job timeline with its queue-wait span.
func TestJobInheritsRequestID(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.FlightSampleN = 1 })

	rec := do(t, s, "POST", "/v1/jobs", JobRequest{Kind: "match", Match: &MatchRequest{Pattern: "FA"}})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get("X-Request-Id")
	var view struct {
		ID        string `json:"id"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.RequestID != id {
		t.Errorf("job record request_id %q, want the submit's ID %q", view.RequestID, id)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = do(t, s, "GET", "/v1/jobs/"+view.ID, nil)
		var jv struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &jv); err != nil {
			t.Fatal(err)
		}
		if jv.State == "done" {
			break
		}
		if jv.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("job state %q: %s", jv.State, rec.Body.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	tls := debugFind(t, s, id)
	if len(tls) != 2 {
		t.Fatalf("recorder holds %d timelines for %s, want 2 (http + job)", len(tls), id)
	}
	// Oldest first: the HTTP submit finished before the job did.
	if tls[0].Scope != "http" || tls[1].Scope != "job:match" {
		t.Errorf("scopes = %q, %q; want http then job:match", tls[0].Scope, tls[1].Scope)
	}
	kinds := map[string]bool{}
	for _, sp := range tls[1].Spans {
		kinds[sp.Kind] = true
	}
	for _, kind := range []string{obs.KindQueueWait, obs.KindPhase1, obs.KindPhase2} {
		if !kinds[kind] {
			t.Errorf("job timeline has no %s span; spans: %+v", kind, tls[1].Spans)
		}
	}
}

// TestTelemetryMetrics: the three new families render, with fixed label
// sets present even at zero.
func TestTelemetryMetrics(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.FlightSampleN = 1 })

	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}); rec.Code != http.StatusOK {
		t.Fatalf("match: status %d", rec.Code)
	}
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())

	if v, ok := met["subgeminid_slow_requests_total"]; !ok || v != 0 {
		t.Errorf("slow_requests_total = %v, %v; want present at 0", v, ok)
	}
	for _, kind := range []string{obs.KindPhase1, obs.KindPhase2, obs.KindQueueWait, obs.KindStoreGet} {
		key := fmt.Sprintf("subgeminid_request_spans_total{kind=%q}", kind)
		if met[key] < 1 {
			t.Errorf("%s = %v, want >= 1", key, met[key])
		}
	}
	for _, reason := range obs.KeepReasons {
		key := fmt.Sprintf("subgeminid_flight_recorder_kept_total{reason=%q}", reason)
		if _, ok := met[key]; !ok {
			t.Errorf("%s missing from dump", key)
		}
	}
	if key := fmt.Sprintf("subgeminid_flight_recorder_kept_total{reason=%q}", obs.KeepSampled); met[key] < 1 {
		t.Errorf("%s = %v, want >= 1 at sample rate 1", key, met[key])
	}
}

// TestSlowRequestAlwaysKept: a match slower than the threshold is kept for
// cause and counted; with a 1ns threshold every request qualifies.
func TestSlowRequestAlwaysKept(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) {
		c.SlowRequest = time.Nanosecond
		c.FlightSampleN = 1 << 30 // sampling alone would effectively never keep
	})
	rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
	if rec.Code != http.StatusOK {
		t.Fatalf("match: status %d", rec.Code)
	}
	tls := debugFind(t, s, rec.Header().Get("X-Request-Id"))
	if len(tls) != 1 || tls[0].KeepReason != obs.KeepSlow {
		t.Fatalf("timelines %+v, want one kept as slow", tls)
	}
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_slow_requests_total"] < 1 {
		t.Errorf("slow_requests_total = %v, want >= 1", met["subgeminid_slow_requests_total"])
	}
}

// TestRecorderConcurrentScrape: matches run concurrently with flight
// recorder list/detail reads and metric scrapes; the race detector owns
// the assertion.
func TestRecorderConcurrentScrape(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.FlightSampleN = 1 })
	const matchers, rounds = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < matchers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < matchers*rounds; i++ {
			for _, tl := range debugList(t, s, "?limit=10") {
				debugFind(t, s, tl.RequestID)
			}
			do(t, s, "GET", "/metrics", nil)
		}
	}()
	wg.Wait()
}

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"subgemini/internal/jobs"
)

// invPairNetlist is a second tiny main circuit: two chained inverters.
const invPairNetlist = `
.GLOBAL VDD GND
MP1 b a VDD pmos
MN1 b a GND nmos
MP2 c b VDD pmos
MN2 c b GND nmos
.END
`

func TestNamedCircuitsCRUDAndSelection(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})

	rec := do(t, s, "PUT", "/v1/circuits/alpha", nandNetlist)
	if rec.Code != http.StatusOK {
		t.Fatalf("put alpha: status %d: %s", rec.Code, rec.Body.String())
	}
	var info CircuitInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Key != "alpha" || info.Devices != 6 {
		t.Errorf("put alpha info = %+v, want key alpha with 6 devices", info)
	}
	if rec := do(t, s, "PUT", "/v1/circuits/beta", invPairNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put beta: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "PUT", "/v1/circuits/.bad", nandNetlist); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid name: status %d, want 400", rec.Code)
	}

	rec = do(t, s, "GET", "/v1/circuits", nil)
	var list []CircuitInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d circuits, want 2: %s", len(list), rec.Body.String())
	}

	// Selection via query parameter and via the request body.
	rec = do(t, s, "POST", "/v1/match?circuit=beta", MatchRequest{Pattern: "INV"})
	if rec.Code != http.StatusOK {
		t.Fatalf("match beta: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Count != 2 || resp.Circuit != "beta" {
		t.Errorf("INV on beta: count=%d circuit=%q, want 2 on beta", resp.Count, resp.Circuit)
	}
	rec = do(t, s, "POST", "/v1/match", MatchRequest{Circuit: "alpha", Pattern: "NAND2"})
	if rec.Code != http.StatusOK {
		t.Fatalf("match alpha: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Count != 1 {
		t.Errorf("NAND2 on alpha: count=%d, want 1", resp.Count)
	}

	// A named circuit that does not exist is 404; the empty default is
	// still the legacy 409.
	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Circuit: "nope", Pattern: "INV"}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown circuit: status %d, want 404", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "INV"}); rec.Code != http.StatusConflict {
		t.Errorf("missing default: status %d, want 409", rec.Code)
	}

	// Per-item selection in a batch, with the batch-level circuit as the
	// default for items that do not pick their own.
	rec = do(t, s, "POST", "/v1/match/batch", BatchRequest{Circuit: "alpha", Requests: []MatchRequest{
		{Pattern: "NAND2"},
		{Circuit: "beta", Pattern: "INV"},
	}})
	var batch BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Match.Count != 1 || batch.Results[1].Match.Count != 2 {
		t.Errorf("batch counts = %d/%d, want 1/2",
			batch.Results[0].Match.Count, batch.Results[1].Match.Count)
	}
	if batch.Results[0].Match.Circuit != "alpha" || batch.Results[1].Match.Circuit != "beta" {
		t.Errorf("batch circuits = %q/%q, want alpha/beta",
			batch.Results[0].Match.Circuit, batch.Results[1].Match.Circuit)
	}

	if rec := do(t, s, "DELETE", "/v1/circuits/alpha", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete alpha: status %d", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/circuits/alpha", nil); rec.Code != http.StatusNotFound {
		t.Errorf("get deleted: status %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/circuits/alpha", nil); rec.Code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", rec.Code)
	}
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(t *testing.T, s *Server, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := do(t, s, "GET", "/v1/jobs/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll job %s: status %d: %s", id, rec.Code, rec.Body.String())
		}
		var view jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if view.State.Terminal() {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 10s", id, view.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func submitJob(t *testing.T, s *Server, req JobRequest) jobs.View {
	t.Helper()
	rec := do(t, s, "POST", "/v1/jobs", req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit job: status %d: %s", rec.Code, rec.Body.String())
	}
	var view jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	return view
}

func TestJobsMatchAndExtract(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})
	if rec := do(t, s, "PUT", "/v1/circuits/alpha", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d", rec.Code)
	}

	// Async match.
	view := submitJob(t, s, JobRequest{Kind: "match",
		Match: &MatchRequest{Circuit: "alpha", Pattern: "NAND2"}})
	view = waitJob(t, s, view.ID)
	if view.State != jobs.Done {
		t.Fatalf("match job ended %s: %s", view.State, view.Error)
	}
	var mr MatchResponse
	if err := json.Unmarshal(view.Result, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Count != 1 || mr.Circuit != "alpha" {
		t.Errorf("job match = %d on %q, want 1 on alpha", mr.Count, mr.Circuit)
	}

	// Async extract with store_as: the gate-level result becomes a new
	// stored circuit; the original is untouched.
	view = submitJob(t, s, JobRequest{Kind: "extract",
		Extract: &ExtractRequest{Circuit: "alpha", Cells: []string{"NAND2", "INV"},
			StoreAs: "gates", IncludeNetlist: true}})
	view = waitJob(t, s, view.ID)
	if view.State != jobs.Done {
		t.Fatalf("extract job ended %s: %s", view.State, view.Error)
	}
	var er ExtractResponse
	if err := json.Unmarshal(view.Result, &er); err != nil {
		t.Fatal(err)
	}
	if er.Devices != 2 || er.StoredAs != "gates" {
		t.Errorf("extract result = %d devices stored as %q, want 2 as gates", er.Devices, er.StoredAs)
	}
	if !strings.Contains(er.Netlist, "NAND2") {
		t.Errorf("extracted netlist missing NAND2 instance:\n%s", er.Netlist)
	}
	rec := do(t, s, "GET", "/v1/circuits/gates", nil)
	var info CircuitInfo
	json.Unmarshal(rec.Body.Bytes(), &info)
	if info.Devices != 2 {
		t.Errorf("stored gates circuit has %d devices, want 2", info.Devices)
	}
	rec = do(t, s, "GET", "/v1/circuits/alpha", nil)
	json.Unmarshal(rec.Body.Bytes(), &info)
	if info.Devices != 6 {
		t.Errorf("original circuit has %d devices after extraction, want 6 (untouched)", info.Devices)
	}

	// A failed job reports its error truthfully.
	view = submitJob(t, s, JobRequest{Kind: "match",
		Match: &MatchRequest{Circuit: "nope", Pattern: "NAND2"}})
	view = waitJob(t, s, view.ID)
	if view.State != jobs.Failed || !strings.Contains(view.Error, "nope") {
		t.Errorf("job on missing circuit: state=%s error=%q, want failed mentioning nope", view.State, view.Error)
	}

	// Submit-time validation and lookups.
	if rec := do(t, s, "POST", "/v1/jobs", JobRequest{Kind: "explode"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bad kind: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "POST", "/v1/jobs", JobRequest{Kind: "match"}); rec.Code != http.StatusBadRequest {
		t.Errorf("missing payload: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/jobs/j-999999", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", rec.Code)
	}
	if rec := do(t, s, "DELETE", "/v1/jobs/"+view.ID, nil); rec.Code != http.StatusConflict {
		t.Errorf("cancel finished job: status %d, want 409", rec.Code)
	}
	rec = do(t, s, "GET", "/v1/jobs", nil)
	var views []jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Errorf("job list has %d entries, want 3", len(views))
	}

	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_jobs_submitted_total"] != 3 || met["subgeminid_jobs_done_total"] != 2 || met["subgeminid_jobs_failed_total"] != 1 {
		t.Errorf("job metrics wrong: submitted=%v done=%v failed=%v",
			met["subgeminid_jobs_submitted_total"], met["subgeminid_jobs_done_total"], met["subgeminid_jobs_failed_total"])
	}
}

// TestPatternCacheEviction: with a tiny cache capacity the LRU evicts and
// the counter shows up on /metrics; evicted built-ins still resolve (they
// recompile as misses).
func TestPatternCacheEviction(t *testing.T) {
	s, _ := newAdderServer(t, func(c *Config) { c.MaxPatterns = 2 })
	for _, pat := range []string{"INV", "NAND2", "XOR2", "INV"} {
		if rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: pat}); rec.Code != http.StatusOK {
			t.Fatalf("match %s: status %d", pat, rec.Code)
		}
	}
	c := s.cache.counters()
	if c.size > 2 {
		t.Errorf("cache size %d exceeds capacity 2", c.size)
	}
	if c.evictions == 0 {
		t.Error("no evictions recorded with capacity 2 and 3 distinct patterns")
	}
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_pattern_cache_evictions_total"] != float64(c.evictions) {
		t.Errorf("metrics evictions = %v, counters say %d",
			met["subgeminid_pattern_cache_evictions_total"], c.evictions)
	}
}

// TestConcurrentUploadVsInFlightMatches is the regression test for the
// store's isolation contract: replacing a circuit mid-match must not race
// with matches running against the replaced entry's CSR view and scratch
// pool (run under -race).  Readers pin the name both ways (query and
// body), mix sequential and parallel matches, and extract jobs clone the
// circuit while the writer keeps replacing it.
func TestConcurrentUploadVsInFlightMatches(t *testing.T) {
	s := mustNew(t, Config{Globals: rails, MaxConcurrent: 4, JobWorkers: 2})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("seed put: status %d", rec.Code)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				req := MatchRequest{Circuit: "chip", Pattern: []string{"NAND2", "INV"}[i%2], Globals: rails}
				if i%3 == 0 {
					req.Workers = 2
				}
				path := "/v1/match"
				if i%2 == 0 {
					req.Circuit = ""
					path = "/v1/match?circuit=chip"
				}
				rec := do(t, s, "POST", path, req)
				// The count depends on which upload won, but every request
				// must succeed: the entry a match acquired stays alive and
				// consistent for the whole run.
				if rec.Code != http.StatusOK {
					t.Errorf("match during replace: status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			body := []string{nandNetlist, invPairNetlist}[i%2]
			if rec := do(t, s, "PUT", "/v1/circuits/chip", body); rec.Code != http.StatusOK {
				t.Errorf("replace: status %d", rec.Code)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			view := submitJob(t, s, JobRequest{Kind: "extract",
				Extract: &ExtractRequest{Circuit: "chip"}})
			waitJob(t, s, view.ID)
		}
	}()
	wg.Wait()
}

// TestRestartAfterKillRecoversStoreAndFailsInterruptedJob is the
// acceptance test of the durable-store PR: a daemon killed (abandoned
// without Close, the in-process stand-in for kill -9) while a job is
// running must, on restart over the same data directory, reload every
// snapshotted circuit, report the interrupted job as failed, and serve
// matches against all reloaded circuits.
func TestRestartAfterKillRecoversStoreAndFailsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Globals: rails, DataDir: dir, JobWorkers: 1}

	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("first boot: %v", err)
	}
	if rec := do(t, s1, "PUT", "/v1/circuits/alpha?name=chip_a", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put alpha: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s1, "PUT", "/v1/circuits/beta", invPairNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put beta: status %d", rec.Code)
	}

	// Block the job mid-run; its record on disk still reads queued, since
	// entering running writes none.
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s1.testCandidateHook = func() {
		once.Do(func() { close(started) })
		<-release
	}
	// The first daemon must be drained before TempDir cleanup, whatever
	// path the test takes out.
	defer func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s1.Close(ctx)
	}()
	view := submitJob(t, s1, JobRequest{Kind: "match",
		Match: &MatchRequest{Circuit: "alpha", Pattern: "NAND2"}})
	<-started

	// "kill -9": no shutdown, no Close.  A second daemon boots over the
	// same data directory while the first still hangs.
	s2 := mustNew(t, cfg)

	rec := do(t, s2, "GET", "/v1/circuits", nil)
	var list []CircuitInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]CircuitInfo{}
	for _, info := range list {
		byKey[info.Key] = info
	}
	if len(byKey) != 2 || byKey["alpha"].Devices != 6 || byKey["beta"].Devices != 4 {
		t.Fatalf("reloaded circuits wrong: %+v", list)
	}
	if byKey["alpha"].Name != "chip_a" {
		t.Errorf("alpha display name %q did not survive restart, want chip_a", byKey["alpha"].Name)
	}

	// The interrupted job is reported failed, not lost and not re-run.
	rec = do(t, s2, "GET", "/v1/jobs/"+view.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("job after restart: status %d: %s", rec.Code, rec.Body.String())
	}
	var recovered jobs.View
	if err := json.Unmarshal(rec.Body.Bytes(), &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != jobs.Failed || !strings.Contains(recovered.Error, "interrupted") {
		t.Errorf("recovered job: state=%s error=%q, want failed/interrupted", recovered.State, recovered.Error)
	}

	// Every reloaded circuit serves matches.
	for _, c := range []struct {
		circuit, pattern string
		want             int
	}{{"alpha", "NAND2", 1}, {"beta", "INV", 2}} {
		rec := do(t, s2, "POST", "/v1/match", MatchRequest{Circuit: c.circuit, Pattern: c.pattern})
		if rec.Code != http.StatusOK {
			t.Fatalf("match %s on reloaded %s: status %d: %s", c.pattern, c.circuit, rec.Code, rec.Body.String())
		}
		if resp := decodeMatch(t, rec); resp.Count != c.want {
			t.Errorf("%s on reloaded %s: count=%d, want %d", c.pattern, c.circuit, resp.Count, c.want)
		}
	}

	met := parseMetrics(t, do(t, s2, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_jobs_recovered_total"] != 1 {
		t.Errorf("jobs_recovered_total = %v, want 1", met["subgeminid_jobs_recovered_total"])
	}
	if met["subgeminid_store_circuits"] != 2 {
		t.Errorf("store_circuits = %v, want 2", met["subgeminid_store_circuits"])
	}
}

// TestUploadedPatternSurvivesRestart: an inline pattern used once is
// persisted with the data directory and resolvable by name after a
// restart.
func TestUploadedPatternSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Globals: rails, DataDir: dir}
	s1 := mustNew(t, cfg)
	if rec := do(t, s1, "PUT", "/v1/circuits/alpha", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d", rec.Code)
	}
	rec := do(t, s1, "POST", "/v1/match", MatchRequest{Circuit: "alpha", Netlist: invPattern})
	if rec.Code != http.StatusOK {
		t.Fatalf("inline pattern: status %d: %s", rec.Code, rec.Body.String())
	}

	s2 := mustNew(t, cfg)
	rec = do(t, s2, "POST", "/v1/match", MatchRequest{Circuit: "alpha", Pattern: "MYINV"})
	if rec.Code != http.StatusOK {
		t.Fatalf("persisted pattern after restart: status %d: %s", rec.Code, rec.Body.String())
	}
	if resp := decodeMatch(t, rec); resp.Count != 1 || !resp.CacheHit {
		t.Errorf("MYINV after restart: count=%d hit=%v, want 1 from cache", resp.Count, resp.CacheHit)
	}
}

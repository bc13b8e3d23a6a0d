package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"subgemini/internal/jobs"
)

// jobResult runs req as a job and decodes its result into out.
func jobResult(t *testing.T, s *Server, req JobRequest, out any) {
	t.Helper()
	view := waitJob(t, s, submitJob(t, s, req).ID)
	if view.State != jobs.Done {
		t.Fatalf("%s job ended %s: %s", req.Kind, view.State, view.Error)
	}
	if err := json.Unmarshal(view.Result, out); err != nil {
		t.Fatalf("%s job result: %v", req.Kind, err)
	}
}

// TestJobsAnswerAsSyncRequests: a match, a batch and a sweep sent as jobs
// answer what the synchronous endpoints answer, with the same counts,
// instances and per-item statuses.  The batch holds one good item beside
// an unknown pattern, an unknown circuit, the missing default circuit and
// a run its deadline cuts.
func TestJobsAnswerAsSyncRequests(t *testing.T) {
	s := mustNew(t, Config{Globals: rails, MaxConcurrent: 4, FlightSampleN: 1})
	if rec := do(t, s, "PUT", "/v1/circuits/alpha", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d: %s", rec.Code, rec.Body.String())
	}
	// Every cancellation poll takes 5ms, so a 1ms deadline expires at the
	// first one.
	s.testCandidateHook = func() { time.Sleep(5 * time.Millisecond) }

	match := MatchRequest{Circuit: "alpha", Pattern: "NAND2"}
	syncMatch := decodeMatch(t, do(t, s, "POST", "/v1/match", match))
	var jobMatch MatchResponse
	jobResult(t, s, JobRequest{Kind: "match", Match: &match}, &jobMatch)
	if syncMatch.Count != 1 || jobMatch.Count != syncMatch.Count || !reflect.DeepEqual(jobMatch.Instances, syncMatch.Instances) {
		t.Errorf("match: the job finds %d instances %v, the endpoint %d %v",
			jobMatch.Count, jobMatch.Instances, syncMatch.Count, syncMatch.Instances)
	}
	// A failed match job records on its timeline the status the endpoint
	// answers.
	ghost := MatchRequest{Circuit: "ghost", Pattern: "INV"}
	if rec := do(t, s, "POST", "/v1/match", ghost); rec.Code != http.StatusNotFound {
		t.Errorf("match on an unknown circuit: status %d, want 404", rec.Code)
	}
	view := submitJob(t, s, JobRequest{Kind: "match", Match: &ghost})
	if view := waitJob(t, s, view.ID); view.State != jobs.Failed {
		t.Errorf("match job on an unknown circuit ended %s", view.State)
	}
	if tls := debugFind(t, s, view.RequestID); len(tls) != 2 || tls[1].Status != http.StatusNotFound {
		t.Errorf("failed match job's timelines %+v, want the job's with status 404", tls)
	}

	batch := BatchRequest{Requests: []MatchRequest{
		{Circuit: "alpha", Pattern: "INV"},
		{Circuit: "alpha", Pattern: "NOSUCH"},
		{Circuit: "ghost", Pattern: "INV"},
		{Pattern: "INV"},
		{Circuit: "alpha", Pattern: "INV", TimeoutMS: 1},
	}}
	want := []int{http.StatusOK, http.StatusNotFound, http.StatusNotFound, http.StatusConflict, http.StatusGatewayTimeout}
	var syncBatch, jobBatch BatchResponse
	rec := do(t, s, "POST", "/v1/match/batch", batch)
	if err := json.Unmarshal(rec.Body.Bytes(), &syncBatch); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", rec.Code, rec.Body.String())
	}
	jobResult(t, s, JobRequest{Kind: "batch", Batch: &batch}, &jobBatch)
	for name, got := range map[string]BatchResponse{"endpoint": syncBatch, "job": jobBatch} {
		if len(got.Results) != len(want) {
			t.Fatalf("%s batch: %d results, want %d", name, len(got.Results), len(want))
		}
		for i, item := range got.Results {
			if item.Status != want[i] {
				t.Errorf("%s batch item %d: status %d (%s), want %d", name, i, item.Status, item.Error, want[i])
			}
		}
	}
	for i := range want {
		a, b := syncBatch.Results[i], jobBatch.Results[i]
		if a.Error != b.Error {
			t.Errorf("batch item %d: the job says %q, the endpoint %q", i, b.Error, a.Error)
		}
	}
	if a, b := syncBatch.Results[0].Match, jobBatch.Results[0].Match; a == nil || b == nil || a.Count != 1 || !reflect.DeepEqual(a.Instances, b.Instances) {
		t.Errorf("batch item 0: the job matches %+v, the endpoint %+v", b, a)
	}

	sweep := SweepRequest{Circuit: "alpha", Patterns: []string{"INV", "NAND2", "NOR2"}, IncludeInstances: true}
	rec = do(t, s, "POST", "/v1/sweep", sweep)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	syncSweep := decodeSweep(t, rec.Body.Bytes())
	for _, kind := range []string{"sweep", "incremental-sweep"} {
		var jobSweep SweepResponse
		jobResult(t, s, JobRequest{Kind: kind, Sweep: &sweep}, &jobSweep)
		if jobSweep.Count != syncSweep.Count || len(jobSweep.Results) != len(syncSweep.Results) {
			t.Fatalf("%s job: %d instances in %d results, the endpoint %d in %d",
				kind, jobSweep.Count, len(jobSweep.Results), syncSweep.Count, len(syncSweep.Results))
		}
		for i, pr := range jobSweep.Results {
			sr := syncSweep.Results[i]
			if pr.Pattern != sr.Pattern || pr.Count != sr.Count || !reflect.DeepEqual(pr.Instances, sr.Instances) {
				t.Errorf("%s job: %s has %d instances %v, the endpoint %d %v",
					kind, pr.Pattern, pr.Count, pr.Instances, sr.Count, sr.Instances)
			}
		}
	}
}

// nandInvA is nandNetlist with the inverter driven by a instead of y: the
// same devices and nets in the same order, so a capture of one circuit
// indexes the other, and replayed there it names the wrong input.
const nandInvA = `
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
MP3 z a VDD pmos
MN3 z a GND nmos
.END
`

// invInput returns the net the input of the one INV instance of a match
// response maps to.
func invInput(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("match: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeMatch(t, rec)
	if resp.Count != 1 {
		t.Fatalf("INV matches %d instances, want 1", resp.Count)
	}
	return resp.Instances[0].Nets["A"]
}

// sweepInvInput is invInput for a sweep whose first pattern is INV.
func sweepInvInput(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decodeSweep(t, rec.Body.Bytes())
	if len(resp.Results) == 0 || resp.Results[0].Count != 1 {
		t.Fatalf("sweep results %+v, want one INV instance first", resp.Results)
	}
	return resp.Results[0].Instances[0].Nets["A"]
}

// holdRuns makes every run of s wait at its first cancellation poll until
// the returned release is called; started closes when a run gets there.
func holdRuns(s *Server) (started <-chan struct{}, release func()) {
	st, rel := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.testCandidateHook = func() {
		once.Do(func() { close(st) })
		<-rel
	}
	return st, func() { close(rel) }
}

// TestStoreAsDropsStaleCaptures: an extract job's store_as that replaces a
// circuit with another of the same size leaves no capture of the old one
// to replay.  The job's only cell is absent, so it stores its source
// unchanged.
func TestStoreAsDropsStaleCaptures(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})
	for name, src := range map[string]string{"chip": nandNetlist, "src": nandInvA} {
		if rec := do(t, s, "PUT", "/v1/circuits/"+name, src); rec.Code != http.StatusOK {
			t.Fatalf("put %s: status %d: %s", name, rec.Code, rec.Body.String())
		}
	}
	inv := MatchRequest{Circuit: "chip", Pattern: "INV"}
	if got := invInput(t, do(t, s, "POST", "/v1/match", inv)); got != "y" {
		t.Fatalf("INV input on nandNetlist is %q, want y", got)
	}
	var er ExtractResponse
	jobResult(t, s, JobRequest{Kind: "extract", Extract: &ExtractRequest{Circuit: "src", Cells: []string{"NOR2"}, StoreAs: "chip"}}, &er)
	if er.StoredAs != "chip" || er.Devices != 6 || len(er.Extractions) != 1 || er.Extractions[0].Count != 0 {
		t.Fatalf("extraction %+v, want chip stored unchanged", er)
	}
	if got := invInput(t, do(t, s, "POST", "/v1/match", inv)); got != "a" {
		t.Errorf("after store_as, INV input is %q, want a: a capture of the replaced circuit replayed", got)
	}
}

// TestPutDuringMatchDropsItsCapture: a match that acquired a circuit
// before a PUT replaced it stores its capture after the replacement; the
// next match must not replay it.
func TestPutDuringMatchDropsItsCapture(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d: %s", rec.Code, rec.Body.String())
	}
	inv := MatchRequest{Circuit: "chip", Pattern: "INV"}
	started, release := holdRuns(s)
	held := make(chan *httptest.ResponseRecorder)
	go func() { held <- do(t, s, "POST", "/v1/match", inv) }()
	<-started
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandInvA); rec.Code != http.StatusOK {
		t.Fatalf("replacing put: status %d: %s", rec.Code, rec.Body.String())
	}
	release()
	if got := invInput(t, <-held); got != "y" {
		t.Errorf("the held match answers INV input %q, want y (the circuit it acquired)", got)
	}
	s.testCandidateHook = nil
	if got := invInput(t, do(t, s, "POST", "/v1/match", inv)); got != "a" {
		t.Errorf("after the put, INV input is %q, want a: the held match's capture replayed", got)
	}
}

// TestReplaceDuringSweepDropsItsCapture: a sweep that acquired a circuit
// before a DELETE and a PUT replaced it stores its captures after the
// replacement; neither the next sweep nor the next match may replay them.
func TestReplaceDuringSweepDropsItsCapture(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d: %s", rec.Code, rec.Body.String())
	}
	sweep := SweepRequest{Circuit: "chip", Patterns: []string{"INV"}, IncludeInstances: true}
	started, release := holdRuns(s)
	held := make(chan *httptest.ResponseRecorder)
	go func() { held <- do(t, s, "POST", "/v1/sweep", sweep) }()
	<-started
	if rec := do(t, s, "DELETE", "/v1/circuits/chip", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandInvA); rec.Code != http.StatusOK {
		t.Fatalf("replacing put: status %d: %s", rec.Code, rec.Body.String())
	}
	release()
	if got := sweepInvInput(t, <-held); got != "y" {
		t.Errorf("the held sweep answers INV input %q, want y (the circuit it acquired)", got)
	}
	s.testCandidateHook = nil
	if got := sweepInvInput(t, do(t, s, "POST", "/v1/sweep", sweep)); got != "a" {
		t.Errorf("after the replacement, the sweep's INV input is %q, want a: the held sweep's capture replayed", got)
	}
	if got := invInput(t, do(t, s, "POST", "/v1/match", MatchRequest{Circuit: "chip", Pattern: "INV"})); got != "a" {
		t.Errorf("after the replacement, the match's INV input is %q, want a", got)
	}
}

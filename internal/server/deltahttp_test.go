package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/jobs"
	"subgemini/internal/stdcell"
	"subgemini/internal/store"
)

// rewireOps is a benign single-op PATCH body: move a device's pin 0 onto
// the named net (created if absent).
func rewireOps(dev, net string) PatchRequest {
	return PatchRequest{Ops: []delta.Op{{Op: delta.OpRewirePin, Device: dev, Pin: 0, Net: net}}}
}

func TestPatchAndVersionsEndpoints(t *testing.T) {
	s := mustNew(t, Config{Globals: rails})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
		t.Fatalf("put: status %d: %s", rec.Code, rec.Body.String())
	}

	rec := do(t, s, "PATCH", "/v1/circuits/chip", rewireOps("MN3", "spare"))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	var pr PatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Circuit.Version != 2 || pr.Applied != 1 {
		t.Errorf("patch response: version=%d applied=%d", pr.Circuit.Version, pr.Applied)
	}

	rec = do(t, s, "GET", "/v1/circuits/chip/versions", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("versions: status %d: %s", rec.Code, rec.Body.String())
	}
	var vl store.VersionLog
	if err := json.Unmarshal(rec.Body.Bytes(), &vl); err != nil {
		t.Fatal(err)
	}
	if vl.Version != 2 || len(vl.Steps) != 1 || vl.Steps[0].Version != 2 {
		t.Errorf("version log: %+v", vl)
	}

	// Failure modes: invalid op (unknown device), empty batch, unknown
	// circuit.  None may move the version.
	if rec := do(t, s, "PATCH", "/v1/circuits/chip", rewireOps("nope", "x")); rec.Code != http.StatusBadRequest {
		t.Errorf("invalid op: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "PATCH", "/v1/circuits/chip", PatchRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty ops: status %d, want 400", rec.Code)
	}
	if rec := do(t, s, "PATCH", "/v1/circuits/ghost", rewireOps("MN3", "x")); rec.Code != http.StatusNotFound {
		t.Errorf("unknown circuit: status %d, want 404", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/circuits/ghost/versions", nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown versions: status %d, want 404", rec.Code)
	}
	var info CircuitInfo
	rec = do(t, s, "GET", "/v1/circuits/chip", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Errorf("version after failed patches = %d, want 2", info.Version)
	}
}

// TestMatchIncrementalReplay drives the whole match-side cache cycle over
// HTTP: cold run captures, warm run replays, an edit narrows the replay to
// the blast radius, and a since_version floor past the capture forces a
// full run whose instances the replayed run must equal exactly.
func TestMatchIncrementalReplay(t *testing.T) {
	d := gen.RippleAdder(6)
	s := mustNew(t, Config{Circuit: d.C.Clone(), Globals: rails})

	cold := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if cold.Incremental == nil || cold.Incremental.Mode != "full" {
		t.Fatalf("cold run incremental = %+v, want mode full", cold.Incremental)
	}
	if cold.Version != 1 {
		t.Errorf("cold version = %d, want 1", cold.Version)
	}

	warm := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if warm.Incremental == nil || warm.Incremental.Mode != "replay" {
		t.Fatalf("warm run incremental = %+v, want mode replay", warm.Incremental)
	}
	if warm.Incremental.Replayed == 0 || warm.Incremental.Recomputed != 0 {
		t.Errorf("unchanged-circuit replay: %+v, want all candidates replayed", warm.Incremental)
	}
	if warm.Incremental.BaseVersion != 1 {
		t.Errorf("warm base version = %d, want 1", warm.Incremental.BaseVersion)
	}
	if warm.Count != cold.Count {
		t.Errorf("replay count %d != cold count %d", warm.Count, cold.Count)
	}

	// Edit one device, then match both ways: replaying across the edit and
	// fully (since_version past every capture) — bit-identical instances.
	dev := d.C.Devices[0].Name
	if rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(dev, "eco1")); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	replayed := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if replayed.Incremental == nil || replayed.Incremental.Mode != "replay" {
		t.Fatalf("post-edit incremental = %+v, want mode replay", replayed.Incremental)
	}
	if replayed.Incremental.Replayed == 0 {
		t.Error("post-edit run replayed nothing; blast radius machinery inert")
	}
	if replayed.Version != 2 {
		t.Errorf("post-edit version = %d, want 2", replayed.Version)
	}
	full := decodeMatch(t, do(t, s, "POST", "/v1/match?since_version=99", MatchRequest{Pattern: "FA"}))
	if full.Incremental == nil || full.Incremental.Mode != "full" {
		t.Fatalf("floored incremental = %+v, want mode full", full.Incremental)
	}
	a, _ := json.Marshal(replayed.Instances)
	b, _ := json.Marshal(full.Instances)
	if string(a) != string(b) {
		t.Errorf("replayed instances differ from full run\nreplay: %s\nfull:   %s", a, b)
	}

	// The cache cycle shows up in the metrics dump.
	met := parseMetrics(t, do(t, s, "GET", "/metrics", nil).Body.String())
	if met["subgeminid_delta_edits_total"] != 1 {
		t.Errorf("delta edits metric = %v, want 1", met["subgeminid_delta_edits_total"])
	}
	if met["subgeminid_result_cache_hits_total"] == 0 {
		t.Error("result cache hits metric is zero")
	}
}

// TestMatchIncrementalDisabled pins the -noincremental escape hatch: no
// incremental section in responses and the incremental-sweep job kind is
// refused at submit time.
func TestMatchIncrementalDisabled(t *testing.T) {
	s, want := newAdderServer(t, func(c *Config) { c.DisableIncremental = true })
	resp := decodeMatch(t, do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "FA"}))
	if resp.Incremental != nil {
		t.Errorf("disabled daemon reported incremental: %+v", resp.Incremental)
	}
	if resp.Count != want {
		t.Errorf("count = %d, want %d", resp.Count, want)
	}
	rec := do(t, s, "POST", "/v1/jobs", JobRequest{
		Kind:  "incremental-sweep",
		Sweep: &SweepRequest{Patterns: []string{"FA"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("incremental-sweep on disabled daemon: status %d, want 400", rec.Code)
	}
}

// TestSweepIncrementalHTTP exercises the sweep-side cache: a warm sweep
// replays, a PATCH narrows it, and the incremental-sweep job kind replays
// while the plain sweep job kind never consults the cache.
func TestSweepIncrementalHTTP(t *testing.T) {
	d := gen.RippleAdder(6)
	s := mustNew(t, Config{Circuit: d.C.Clone(), Globals: rails})
	sweepReq := SweepRequest{Patterns: []string{"FA", "INV", "NAND2"}}

	var cold, warm SweepResponse
	rec := do(t, s, "POST", "/v1/sweep", sweepReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Replayed != 0 || cold.Version != 1 {
		t.Errorf("cold sweep: replayed=%d version=%d", cold.Replayed, cold.Version)
	}

	if rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(d.C.Devices[0].Name, "eco1")); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.String())
	}
	rec = do(t, s, "POST", "/v1/sweep", sweepReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Replayed == 0 {
		t.Error("warm sweep replayed nothing")
	}
	if warm.Version != 2 {
		t.Errorf("warm sweep version = %d, want 2", warm.Version)
	}
	// The edit may legitimately change per-pattern counts vs the cold
	// sweep; what must agree is warm vs a full sweep of the same version.
	var full SweepResponse
	rec = do(t, s, "POST", "/v1/sweep?since_version=99", sweepReq)
	if err := json.Unmarshal(rec.Body.Bytes(), &full); err != nil {
		t.Fatal(err)
	}
	for i := range warm.Results {
		if warm.Results[i].Count != full.Results[i].Count {
			t.Errorf("%s: warm count %d != full count %d",
				warm.Results[i].Pattern, warm.Results[i].Count, full.Results[i].Count)
		}
	}

	// Job kinds: "incremental-sweep" replays from the now-warm cache, plain
	// "sweep" never consults it.
	view := waitJob(t, s, submitJob(t, s, JobRequest{Kind: "incremental-sweep", Sweep: &sweepReq}).ID)
	if view.State != "done" {
		t.Fatalf("incremental-sweep job: %s (%s)", view.State, view.Error)
	}
	var jobResp SweepResponse
	if err := json.Unmarshal(view.Result, &jobResp); err != nil {
		t.Fatal(err)
	}
	if jobResp.Replayed == 0 {
		t.Error("incremental-sweep job replayed nothing")
	}
	view = waitJob(t, s, submitJob(t, s, JobRequest{Kind: "sweep", Sweep: &sweepReq}).ID)
	if view.State != "done" {
		t.Fatalf("sweep job: %s (%s)", view.State, view.Error)
	}
	var plainResp SweepResponse
	if err := json.Unmarshal(view.Result, &plainResp); err != nil {
		t.Fatal(err)
	}
	if plainResp.Replayed != 0 {
		t.Errorf("plain sweep job replayed %d candidates; must not consult the cache", plainResp.Replayed)
	}
}

// TestConcurrentPatchVsMatch hammers POST /v1/match while PATCHes land.
// Under -race this pins HTTP-level snapshot isolation: every match sees one
// consistent circuit version and never errors.
func TestConcurrentPatchVsMatch(t *testing.T) {
	d := gen.NandMesh(5, 6)
	s := mustNew(t, Config{Circuit: d.C.Clone(), Globals: rails})
	dev := d.C.Devices[0].Name

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: "NAND2"})
				if rec.Code != http.StatusOK {
					t.Errorf("match: status %d: %s", rec.Code, rec.Body.String())
					return
				}
				if resp := decodeMatch(t, rec); resp.Count == 0 {
					t.Error("match found nothing mid-edit")
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		rec := do(t, s, "PATCH", "/v1/circuits/default", rewireOps(dev, fmt.Sprintf("cc%d", i)))
		if rec.Code != http.StatusOK {
			t.Fatalf("patch %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	close(stop)
	wg.Wait()

	var info CircuitInfo
	if err := json.Unmarshal(do(t, s, "GET", "/v1/circuits/default", nil).Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != 21 {
		t.Errorf("final version = %d, want 21", info.Version)
	}
}

// versionRefs is what a quiescent server answers at one circuit version.
type versionRefs struct {
	match   map[string][]InstanceJSON
	sweep   []SweepPatternJSON
	extract ExtractResponse
}

// editRaceScript is the PATCH script of TestEditsRaceReaders: batch k
// renames the net on pin 0 of a transistor of an inverter and moves the
// pin onto a fresh net, batch k+1 moves it back, removes that net and
// restores the name, each time in a different inverter, so consecutive
// versions match differently and the names a response renders change.
func editRaceScript(t *testing.T, c *graph.Circuit, n int) []PatchRequest {
	res, err := core.Find(c.Clone(), stdcell.INV.Pattern(), core.Options{Globals: rails})
	if err != nil || len(res.Instances) < n/2 {
		t.Fatalf("edit script: %d inverters (%v), want %d", len(res.Instances), err, n/2)
	}
	var out []PatchRequest
	for k := 0; k < n; k += 2 {
		d := c.DeviceByName(res.Instances[k/2].Devices()[0].Name)
		eco, net := fmt.Sprintf("eco%d", k), d.Pins[0].Net.Name
		renamed := net + "_r"
		out = append(out,
			PatchRequest{Ops: []delta.Op{{Op: delta.OpRenameNet, Old: net, New: renamed},
				{Op: delta.OpRewirePin, Device: d.Name, Net: eco}}},
			PatchRequest{Ops: []delta.Op{{Op: delta.OpRewirePin, Device: d.Name, Net: renamed},
				{Op: delta.OpRemoveNet, Name: eco}, {Op: delta.OpRenameNet, Old: renamed, New: net}}})
	}
	return out[:n]
}

var (
	raceMatch   = []string{"NAND2", "INV"}
	raceSweep   = SweepRequest{Patterns: []string{"NAND2", "INV", "NOR2"}, IncludeInstances: true}
	raceExtract = ExtractRequest{Cells: []string{"NAND2", "INV"}, StoreAs: "gates", IncludeNetlist: true}
)

// TestEditsRaceReaders runs matches, sweeps and extract jobs that store
// their result (store_as) against one circuit while PATCHes land on it and
// on the stored result; run it under -race.  Edits with no reader in flight
// rewrite the circuit in place, so every response must still equal what a
// quiescent server answers at the version it reports (an extract job
// reports none: it must equal the answer at one of the versions current
// while it ran).
func TestEditsRaceReaders(t *testing.T) {
	d := gen.RandomLogic(80, 10, 6)
	script := editRaceScript(t, d.C, 24)

	// References: one server, one version at a time.
	ref := mustNew(t, Config{Circuit: d.C.Clone(), Globals: rails})
	refs := make([]versionRefs, len(script)+2) // by version, from 1
	for v := 1; v <= len(script)+1; v++ {
		r := versionRefs{match: map[string][]InstanceJSON{}}
		for _, p := range raceMatch {
			m := decodeMatch(t, do(t, ref, "POST", "/v1/match", MatchRequest{Pattern: p}))
			if m.Version != uint64(v) {
				t.Fatalf("reference %s at version %d reports %d", p, v, m.Version)
			}
			r.match[p] = m.Instances
		}
		r.sweep = decodeSweep(t, do(t, ref, "POST", "/v1/sweep", raceSweep).Body.Bytes()).Results
		job := waitJob(t, ref, submitJob(t, ref, JobRequest{Kind: jobKindExtract, Extract: &raceExtract}).ID)
		if err := json.Unmarshal(job.Result, &r.extract); err != nil || job.State != "done" {
			t.Fatalf("reference extract at version %d: %s %s %v", v, job.State, job.Error, err)
		}
		refs[v] = r
		if v <= len(script) {
			if rec := do(t, ref, "PATCH", "/v1/circuits/default", script[v-1]); rec.Code != http.StatusOK {
				t.Fatalf("reference patch %d: %s", v, rec.Body.String())
			}
		}
	}
	for v := 1; v <= len(script); v++ {
		if reflect.DeepEqual(refs[v].match, refs[v+1].match) {
			t.Fatalf("batch %d changes no match; the references cannot tell versions apart", v)
		}
	}

	s := mustNew(t, Config{Circuit: d.C.Clone(), Globals: rails})
	version := func() uint64 {
		var info CircuitInfo
		if err := json.Unmarshal(do(t, s, "GET", "/v1/circuits/default", nil).Body.Bytes(), &info); err != nil {
			t.Errorf("circuit info: %v", err)
		}
		return info.Version
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers pause between requests (all but the matches), so that some
	// PATCHes find no handle held and edit in place.
	reader := func(name string, pause time.Duration, one func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i == 0 {
						t.Errorf("%s never ran", name)
					}
					return
				case <-time.After(pause):
				}
				if err := one(i); err != nil {
					t.Errorf("%s %d: %v", name, i, err)
					return
				}
			}
		}()
	}
	reader("match", 0, func(i int) error {
		p := raceMatch[i%len(raceMatch)]
		rec := do(t, s, "POST", "/v1/match", MatchRequest{Pattern: p})
		var m MatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		if m.Version < 1 || m.Version >= uint64(len(refs)) {
			return fmt.Errorf("%s reports version %d", p, m.Version)
		}
		if !reflect.DeepEqual(m.Instances, refs[m.Version].match[p]) {
			return fmt.Errorf("%s at version %d differs from the reference", p, m.Version)
		}
		return nil
	})
	reader("sweep", 3*time.Millisecond, func(int) error {
		rec := do(t, s, "POST", "/v1/sweep", raceSweep)
		var sr SweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		if sr.Version < 1 || sr.Version >= uint64(len(refs)) {
			return fmt.Errorf("sweep reports version %d", sr.Version)
		}
		for k, pr := range sr.Results {
			want := refs[sr.Version].sweep[k]
			if pr.Count != want.Count || !reflect.DeepEqual(pr.Instances, want.Instances) {
				return fmt.Errorf("%s at version %d differs from the reference", pr.Pattern, sr.Version)
			}
		}
		return nil
	})
	reader("extract", 3*time.Millisecond, func(int) error {
		lo := version()
		rec := do(t, s, "POST", "/v1/jobs", JobRequest{Kind: jobKindExtract, Extract: &raceExtract})
		var view jobs.View
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || rec.Code != http.StatusAccepted {
			return fmt.Errorf("submit: status %d: %s", rec.Code, rec.Body.String())
		}
		for !view.State.Terminal() {
			time.Sleep(time.Millisecond)
			if err := json.Unmarshal(do(t, s, "GET", "/v1/jobs/"+view.ID, nil).Body.Bytes(), &view); err != nil {
				return err
			}
		}
		var got ExtractResponse
		if err := json.Unmarshal(view.Result, &got); err != nil || view.State != "done" {
			return fmt.Errorf("job %s: %s %v", view.State, view.Error, err)
		}
		hi := version()
		for v := lo; v <= hi; v++ {
			if reflect.DeepEqual(got, refs[v].extract) {
				return nil
			}
		}
		return fmt.Errorf("extraction matches no reference between versions %d and %d", lo, hi)
	})
	// Edits on the stored extraction race the jobs that replace it.
	reader("patch gates", time.Millisecond, func(i int) error {
		rec := do(t, s, "PATCH", "/v1/circuits/gates", PatchRequest{Ops: []delta.Op{
			{Op: delta.OpAddDevice, Name: "Rrace", Type: "res", Classes: []int{0, 0}, Nets: []string{"ra", "rb"}},
			{Op: delta.OpRemoveDevice, Name: "Rrace"}}})
		if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	})

	for k, p := range script {
		if rec := do(t, s, "PATCH", "/v1/circuits/default", p); rec.Code != http.StatusOK {
			t.Errorf("patch %d: status %d: %s", k, rec.Code, rec.Body.String())
			break
		}
		time.Sleep(5 * time.Millisecond) // let readers land on each version
	}
	close(stop)
	wg.Wait()
	if v := version(); v != uint64(len(script)+1) {
		t.Errorf("final version %d, want %d", v, len(script)+1)
	}
}

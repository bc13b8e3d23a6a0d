// Command chaos_daemon is the fault-tolerance counterpart of
// scripts/smoke_daemon, run by `make chaos-smoke`: it builds subgeminid
// and rehearses the failure modes OPERATIONS.md documents, against the
// real binary over real HTTP.  Three scenarios:
//
//   - kill-mid-job: a long match job is SIGKILLed mid-run; on restart the
//     boot recovery marks the interrupted record failed and the daemon
//     keeps serving matches.
//   - disk-error: with store.write-snapshot armed via -faults, a circuit
//     upload fails, /readyz flips to 503 while /healthz stays 200, and
//     the next clean write restores readiness.
//   - overload: with -shed-inflight 1, a pathological ring match (the
//     worst case for Phase II) holds the inflight budget; batch, sweep
//     and job submissions shed with 429 + Retry-After while a single
//     POST /v1/match stays live; the pathological match itself is cut by
//     its deadline and returns within 2x of it; goroutine counts return
//     to the pre-overload baseline (no leaks).
//   - edit-storm: concurrent sweeps race a sequence of PATCH edit
//     batches with one injected edit-log write failure mid-storm; the
//     failed PATCH leaves the version lineage intact (/readyz flips and
//     recovers), the post-storm sweep replays from the result cache with
//     counts identical to a forced full re-sweep, and replacing the
//     circuit invalidates its cache entries.
//   - telemetry: a shed request, a fault-injected request, and a slow
//     match each return an X-Request-Id whose timeline the flight
//     recorder kept for cause (shed / error / slow); the detail endpoint
//     reconstructs the slow match's span tree and the outcome filter
//     finds the shed.
//
// Usage (from the repository root):
//
//	go run ./scripts/chaos_daemon
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

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

// ringCircuit builds a closed ring of n 2-pin resistors as top-level
// cards: n0 - R0 - n1 - R1 - ... - R(n-1) - n0.  Matching one ring
// against a slightly larger one is the pathological Phase II workload
// (see internal/core's cancellation tests): perfect symmetry makes every
// candidate run ~n/2 solve passes before the wrap-around refutes it.
func ringCircuit(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R%d n%d n%d\n", i, i, (i+1)%n)
	}
	b.WriteString(".END\n")
	return b.String()
}

// ringPattern is the same ring as a portless .SUBCKT, for inline use in a
// match request.
func ringPattern(n int) string {
	var b strings.Builder
	b.WriteString(".SUBCKT ringpat\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "R%d p%d p%d\n", i, i, (i+1)%n)
	}
	b.WriteString(".ENDS\n")
	return b.String()
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("chaos-smoke: OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "subgeminid-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "subgeminid")
	build := exec.Command("go", "build", "-o", bin, "./cmd/subgeminid")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building subgeminid: %w", err)
	}

	if err := killMidJob(bin, filepath.Join(tmp, "kill")); err != nil {
		return fmt.Errorf("kill-mid-job: %w", err)
	}
	fmt.Println("chaos-smoke: kill-mid-job ok (interrupted job failed cleanly at boot)")

	if err := diskError(bin, filepath.Join(tmp, "disk")); err != nil {
		return fmt.Errorf("disk-error: %w", err)
	}
	fmt.Println("chaos-smoke: disk-error ok (/readyz tracked the injected store fault)")

	if err := overload(bin, filepath.Join(tmp, "overload")); err != nil {
		return fmt.Errorf("overload: %w", err)
	}
	fmt.Println("chaos-smoke: overload ok (bulk shed, match live, deadline cut the solve)")

	if err := editStorm(bin, filepath.Join(tmp, "editstorm")); err != nil {
		return fmt.Errorf("edit-storm: %w", err)
	}
	fmt.Println("chaos-smoke: edit-storm ok (replay survived concurrent edits and a log fault)")

	if err := telemetry(bin, filepath.Join(tmp, "telemetry")); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	fmt.Println("chaos-smoke: telemetry ok (shed, fault, and slow requests all landed in the flight recorder)")
	return nil
}

// killMidJob: SIGKILL the daemon while a pathological match job is
// running, restart it over the same data directory, and assert the boot
// recovery marked the record failed while the daemon stays serviceable.
func killMidJob(bin, dataDir string) error {
	d, err := startDaemon(bin, dataDir)
	if err != nil {
		return err
	}
	defer d.kill()

	if err := d.putCircuit("alpha", nandNetlist); err != nil {
		return err
	}
	if err := d.putCircuit("ring", ringCircuit(1504)); err != nil {
		return err
	}
	// No timeout_ms: left alone, this symmetric-ring job would run for
	// minutes.  The kill lands while it runs; its record on disk still
	// reads queued, since entering running writes none.
	jobID, err := d.submitMatchJob("ring", ringPattern(1500), "ringpat", 0)
	if err != nil {
		return err
	}
	if err := d.waitJobState(jobID, "running", 15*time.Second); err != nil {
		return err
	}
	if err := d.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("SIGKILL: %w", err)
	}
	d.cmd.Wait()

	d2, err := startDaemon(bin, dataDir)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer d2.kill()

	state, jerr, err := d2.jobState(jobID)
	if err != nil {
		return err
	}
	if state != "failed" || !strings.Contains(jerr, "interrupted") {
		return fmt.Errorf("job %s after SIGKILL+restart is %q (%q), want failed/interrupted", jobID, state, jerr)
	}
	mets, err := d2.metrics()
	if err != nil {
		return err
	}
	if mets[`subgeminid_jobs_recovered_total`] < 1 {
		return fmt.Errorf("subgeminid_jobs_recovered_total = %v, want >= 1", mets[`subgeminid_jobs_recovered_total`])
	}
	// The daemon is not just up, it still matches.
	if count, err := d2.match("alpha", "NAND2"); err != nil {
		return err
	} else if count != 1 {
		return fmt.Errorf("post-restart match: NAND2 on alpha = %d, want 1", count)
	}
	return d2.stop()
}

// diskError: with store.write-snapshot armed to fail once, the first
// upload errors and /readyz goes 503 while /healthz stays 200; the next
// clean write restores readiness.
func diskError(bin, dataDir string) error {
	d, err := startDaemon(bin, dataDir, "-faults", "store.write-snapshot=error:1")
	if err != nil {
		return err
	}
	defer d.kill()

	if code, err := d.statusOf("GET", "/readyz", ""); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("/readyz at boot = %d, want 200", code)
	}
	code, _, body, err := d.doRaw("PUT", "/v1/circuits/alpha", nandNetlist)
	if err != nil {
		return err
	}
	if code < 400 {
		return fmt.Errorf("upload with snapshot fault armed = %d (%s), want an error", code, body)
	}
	if code, err := d.statusOf("GET", "/readyz", ""); err != nil {
		return err
	} else if code != http.StatusServiceUnavailable {
		return fmt.Errorf("/readyz after injected disk error = %d, want 503", code)
	}
	// Liveness is about the process, not the disk.
	if code, err := d.statusOf("GET", "/healthz", ""); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("/healthz after injected disk error = %d, want 200", code)
	}

	// The one-shot fault is spent: the retry succeeds and readiness recovers.
	if err := d.putCircuit("alpha", nandNetlist); err != nil {
		return fmt.Errorf("retry upload after fault expired: %w", err)
	}
	if code, err := d.statusOf("GET", "/readyz", ""); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("/readyz after clean write = %d, want 200", code)
	}
	if count, err := d.match("alpha", "NAND2"); err != nil {
		return err
	} else if count != 1 {
		return fmt.Errorf("match after recovery: NAND2 on alpha = %d, want 1", count)
	}
	mets, err := d.metrics()
	if err != nil {
		return err
	}
	if mets[`subgeminid_faults_fired_total`] < 1 {
		return fmt.Errorf("subgeminid_faults_fired_total = %v, want >= 1", mets[`subgeminid_faults_fired_total`])
	}
	return d.stop()
}

// overload: a pathological ring match with a 3s deadline holds the
// inflight budget; bulk endpoints shed with 429 + Retry-After while a
// single match stays live; the ring match is cut by its deadline and
// returns within 2x of it; goroutines return to baseline afterwards.
func overload(bin, dataDir string) error {
	d, err := startDaemon(bin, dataDir,
		"-max-concurrent", "2", "-shed-inflight", "1", "-retry-after", "3s")
	if err != nil {
		return err
	}
	defer d.kill()

	if err := d.putCircuit("alpha", nandNetlist); err != nil {
		return err
	}
	if err := d.putCircuit("ring", ringCircuit(4004)); err != nil {
		return err
	}
	baseline, err := d.goroutines()
	if err != nil {
		return err
	}

	const deadline = 3 * time.Second
	type outcome struct {
		code    int
		body    string
		elapsed time.Duration
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		body := fmt.Sprintf(`{"circuit":"ring","netlist":%s,"subckt":"ringpat","timeout_ms":%d}`,
			mustJSON(ringPattern(4000)), deadline.Milliseconds())
		start := time.Now()
		code, _, respBody, err := d.doRaw("POST", "/v1/match", body)
		done <- outcome{code, respBody, time.Since(start), err}
	}()

	// Wait until the ring match actually occupies a slot, then prove the
	// shed order: every bulk endpoint 429s while a single match is served.
	if err := d.waitInflight(1, 15*time.Second); err != nil {
		return err
	}
	for _, ep := range []struct{ method, path, body string }{
		{"POST", "/v1/match/batch", `{"circuit":"alpha","requests":[{"pattern":"NAND2"}]}`},
		{"POST", "/v1/sweep", `{"circuit":"alpha","library":"none"}`},
		{"POST", "/v1/jobs", `{"kind":"match","match":{"circuit":"alpha","pattern":"NAND2"}}`},
	} {
		code, hdr, body, err := d.doRaw(ep.method, ep.path, ep.body)
		if err != nil {
			return err
		}
		if code != http.StatusTooManyRequests {
			return fmt.Errorf("%s under load = %d (%s), want 429", ep.path, code, body)
		}
		if ra := hdr.Get("Retry-After"); ra != "3" {
			return fmt.Errorf("%s Retry-After = %q, want \"3\"", ep.path, ra)
		}
		var shed struct {
			Shed        bool `json:"shed"`
			RetryAfterS int  `json:"retry_after_s"`
		}
		if err := json.Unmarshal([]byte(body), &shed); err != nil {
			return fmt.Errorf("%s shed body %q: %w", ep.path, body, err)
		}
		if !shed.Shed || shed.RetryAfterS != 3 {
			return fmt.Errorf("%s shed body %q, want shed:true retry_after_s:3", ep.path, body)
		}
	}
	if count, err := d.match("alpha", "NAND2"); err != nil {
		return fmt.Errorf("single match under load: %w", err)
	} else if count != 1 {
		return fmt.Errorf("single match under load: NAND2 on alpha = %d, want 1", count)
	}

	// That match ran the region-localized Phase II engine; its region
	// telemetry must be visible on /metrics even while the daemon sheds.
	mets, err := d.metrics()
	if err != nil {
		return err
	}
	if mets["subgeminid_match_region_vertices_total"] < 1 {
		return fmt.Errorf("subgeminid_match_region_vertices_total = %v after a served match, want >= 1",
			mets["subgeminid_match_region_vertices_total"])
	}
	if mets["subgeminid_match_region_max_size"] < 1 {
		return fmt.Errorf("subgeminid_match_region_max_size = %v after a served match, want >= 1",
			mets["subgeminid_match_region_max_size"])
	}

	// The pathological match must be cut by its deadline, not by the end
	// of its O(n^2) first candidate: deep cancellation bounds the overrun.
	oc := <-done
	if oc.err != nil {
		return fmt.Errorf("pathological match: %w", oc.err)
	}
	if oc.code != http.StatusGatewayTimeout {
		return fmt.Errorf("pathological match = %d (%s), want 504", oc.code, oc.body)
	}
	if oc.elapsed > 2*deadline {
		return fmt.Errorf("pathological match returned after %v, want <= 2x its %v deadline", oc.elapsed, deadline)
	}
	fmt.Printf("  chaos: deadline %v cut the ring match after %v\n", deadline, oc.elapsed.Round(time.Millisecond))

	// Shedding lifts once the load is gone.
	if code, _, body, err := d.doRaw("POST", "/v1/match/batch",
		`{"circuit":"alpha","requests":[{"pattern":"NAND2"}]}`); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("batch after load = %d (%s), want 200", code, body)
	}

	// No goroutine leaks: the overload round leaves no stragglers behind.
	slackDeadline := time.Now().Add(10 * time.Second)
	for {
		n, err := d.goroutines()
		if err != nil {
			return err
		}
		if n <= baseline+3 {
			break
		}
		if time.Now().After(slackDeadline) {
			return fmt.Errorf("goroutines after overload = %d, baseline %d: leak", n, baseline)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return d.stop()
}

// nandArray builds n disconnected CMOS NAND2 gates as top-level cards —
// enough instances that a sweep's result cache has something to replay.
func nandArray(n int) string {
	var b strings.Builder
	b.WriteString(".GLOBAL VDD GND\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "MP1_%d y%d a%d VDD pmos\n", i, i, i)
		fmt.Fprintf(&b, "MP2_%d y%d b%d VDD pmos\n", i, i, i)
		fmt.Fprintf(&b, "MN1_%d y%d a%d m%d nmos\n", i, i, i, i)
		fmt.Fprintf(&b, "MN2_%d m%d b%d GND nmos\n", i, i, i)
	}
	b.WriteString(".END\n")
	return b.String()
}

// sweepOnce runs one library sweep and returns the decoded response.
func (d *daemon) sweepOnce(circuit, library string, sinceVersion uint64) (*sweepReply, error) {
	body := fmt.Sprintf(`{"circuit":%q,"library":%q,"since_version":%d}`, circuit, library, sinceVersion)
	var resp sweepReply
	if err := d.do("POST", "/v1/sweep", body, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// sweepReply is the slice of the sweep response the storm asserts on.
type sweepReply struct {
	Count      int    `json:"count"`
	Version    uint64 `json:"version"`
	Replayed   int    `json:"replayed"`
	Recomputed int    `json:"recomputed"`
	Results    []struct {
		Pattern string `json:"pattern"`
		Count   int    `json:"count"`
	} `json:"results"`
}

// editStorm: sweeps race PATCH edit batches, with the edit-log write
// armed to fail once mid-storm.  The failed PATCH must not advance the
// version lineage (/readyz flips and recovers with the next clean edit),
// the post-storm sweep must replay from the result cache with per-pattern
// counts identical to a forced full re-sweep, and replacing the circuit
// must invalidate its cache entries.
func editStorm(bin, dataDir string) error {
	const patches = 12
	// skip=6: the first six PATCH log appends pass, the seventh fails.
	d, err := startDaemon(bin, dataDir, "-faults", "store.append-log=error:1:skip=6")
	if err != nil {
		return err
	}
	defer d.kill()

	if err := d.putCircuit("mesh", nandArray(40)); err != nil {
		return err
	}
	if err := d.do("PUT", "/v1/libraries/std", `{"patterns":["NAND2","INV"]}`, nil); err != nil {
		return err
	}
	cold, err := d.sweepOnce("mesh", "std", 0)
	if err != nil {
		return err
	}
	if cold.Replayed != 0 {
		return fmt.Errorf("cold sweep replayed %d candidates with an empty cache", cold.Replayed)
	}
	if cold.Count < 40 {
		return fmt.Errorf("cold sweep found %d instances on 40 NAND2 gates, want >= 40", cold.Count)
	}

	// Sweepers hammer the circuit while the PATCH sequence lands.  They
	// cannot assert counts — each runs against whatever version it leases —
	// only that every sweep succeeds and stays internally consistent.
	stop := make(chan struct{})
	sweepErr := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			for {
				select {
				case <-stop:
					sweepErr <- nil
					return
				default:
				}
				if _, err := d.sweepOnce("mesh", "std", 0); err != nil {
					sweepErr <- fmt.Errorf("sweep during storm: %w", err)
					return
				}
			}
		}()
	}

	applied := 0
	faultSeen := false
	for i := 0; i < patches; i++ {
		body := fmt.Sprintf(`{"ops":[{"op":"rewire_pin","device":"MN2_%d","pin":0,"net":"eco%d"}]}`, i, i)
		code, _, respBody, err := d.doRaw("PATCH", "/v1/circuits/mesh", body)
		if err != nil {
			close(stop)
			return err
		}
		switch {
		case code == http.StatusOK:
			applied++
		case code >= 400 && !faultSeen:
			// The injected log-append failure: the edit must not have
			// applied, and the store reports degraded until a clean write.
			faultSeen = true
			if rcode, err := d.statusOf("GET", "/readyz", ""); err != nil {
				close(stop)
				return err
			} else if rcode != http.StatusServiceUnavailable {
				close(stop)
				return fmt.Errorf("/readyz after injected edit-log fault = %d, want 503", rcode)
			}
		default:
			close(stop)
			return fmt.Errorf("PATCH %d = %d (%s), want 200 (or one injected failure)", i, code, respBody)
		}
	}
	close(stop)
	for i := 0; i < 3; i++ {
		if err := <-sweepErr; err != nil {
			return err
		}
	}
	if !faultSeen {
		return fmt.Errorf("the armed store.append-log fault never fired across %d PATCHes", patches)
	}
	if code, err := d.statusOf("GET", "/readyz", ""); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("/readyz after the storm = %d, want 200 (clean edits recover the store)", code)
	}

	// The failed PATCH must be absent from the lineage: version = initial
	// upload + successful edits, nothing skipped or double-counted.
	var vl struct {
		Version uint64 `json:"version"`
	}
	if err := d.do("GET", "/v1/circuits/mesh/versions", "", &vl); err != nil {
		return err
	}
	wantVersion := uint64(1 + applied)
	if vl.Version != wantVersion {
		return fmt.Errorf("version after %d applied edits = %d, want %d", applied, vl.Version, wantVersion)
	}

	// Post-storm: the warm sweep replays from the cache, and a forced full
	// re-sweep (since_version past the head) agrees pattern by pattern.
	warm, err := d.sweepOnce("mesh", "std", 0)
	if err != nil {
		return err
	}
	if warm.Replayed == 0 {
		return fmt.Errorf("post-storm sweep replayed nothing; the result cache sat out the storm")
	}
	full, err := d.sweepOnce("mesh", "std", wantVersion+1000)
	if err != nil {
		return err
	}
	if full.Replayed != 0 {
		return fmt.Errorf("since_version past the head still replayed %d candidates", full.Replayed)
	}
	if len(warm.Results) != len(full.Results) {
		return fmt.Errorf("warm sweep has %d patterns, full has %d", len(warm.Results), len(full.Results))
	}
	for i := range warm.Results {
		if warm.Results[i].Count != full.Results[i].Count {
			return fmt.Errorf("pattern %s: warm replay found %d instances, full re-sweep %d",
				warm.Results[i].Pattern, warm.Results[i].Count, full.Results[i].Count)
		}
	}
	fmt.Printf("  chaos: %d edits applied, warm sweep replayed %d / recomputed %d, counts match full\n",
		applied, warm.Replayed, warm.Recomputed)

	mets, err := d.metrics()
	if err != nil {
		return err
	}
	if got := int(mets["subgeminid_delta_edits_total"]); got != applied {
		return fmt.Errorf("subgeminid_delta_edits_total = %d, want %d", got, applied)
	}
	if mets["subgeminid_result_cache_hits_total"] < 1 {
		return fmt.Errorf("subgeminid_result_cache_hits_total = %v, want >= 1", mets["subgeminid_result_cache_hits_total"])
	}
	if mets["subgeminid_faults_fired_total"] < 1 {
		return fmt.Errorf("subgeminid_faults_fired_total = %v, want >= 1", mets["subgeminid_faults_fired_total"])
	}

	// Replacement starts a new version lineage: the cache entries drop and
	// the next sweep is a full, re-capturing run.
	if err := d.putCircuit("mesh", nandArray(40)); err != nil {
		return err
	}
	mets, err = d.metrics()
	if err != nil {
		return err
	}
	if mets["subgeminid_result_cache_invalidations_total"] < 1 {
		return fmt.Errorf("subgeminid_result_cache_invalidations_total = %v after replacement, want >= 1",
			mets["subgeminid_result_cache_invalidations_total"])
	}
	fresh, err := d.sweepOnce("mesh", "std", 0)
	if err != nil {
		return err
	}
	if fresh.Replayed != 0 {
		return fmt.Errorf("sweep after replacement replayed %d candidates from a dead lineage", fresh.Replayed)
	}
	return d.stop()
}

// timeline is the slice of a /debug/requests timeline the telemetry scene
// asserts on.
type timeline struct {
	RequestID  string `json:"request_id"`
	Scope      string `json:"scope"`
	Path       string `json:"path"`
	Status     int    `json:"status"`
	KeepReason string `json:"keep_reason"`
	DurationUS int64  `json:"duration_us"`
	Spans      []struct {
		Kind  string            `json:"kind"`
		DurUS int64             `json:"dur_us"`
		Attrs map[string]string `json:"attrs"`
	} `json:"spans"`
}

// findTimelines fetches GET /debug/requests/{id} and returns its timelines.
func (d *daemon) findTimelines(id string) ([]timeline, error) {
	var body struct {
		Timelines []timeline `json:"timelines"`
	}
	if err := d.do("GET", "/debug/requests/"+id, "", &body); err != nil {
		return nil, err
	}
	return body.Timelines, nil
}

// telemetry: drive one shed request, one fault-injected request, and one
// slow match through the daemon, then prove that each response's
// X-Request-Id resolves in the flight recorder to a timeline kept for the
// right cause, that the slow match's span tree reconstructs its path
// through the engine, and that the list endpoint's outcome filter finds
// the shed.
func telemetry(bin, dataDir string) error {
	// -shed-memory-bytes 1 sheds every bulk request (heap in use is always
	// past a 1-byte budget) while single matches stay live; -slow-request
	// 1ms makes the ring match below slow for certain; the huge -flight-
	// sample proves keeps are for cause, not sampling luck.  The armed
	// server.handler fault fires on the third request (skip=2): the two
	// uploads pass, the probe after them draws the 503.
	d, err := startDaemon(bin, dataDir,
		"-shed-memory-bytes", "1", "-slow-request", "1ms", "-flight-sample", "1000000",
		"-log-format", "json",
		"-faults", "server.handler=error:1:skip=2")
	if err != nil {
		return err
	}
	defer d.kill()

	if err := d.putCircuit("alpha", nandNetlist); err != nil {
		return err
	}
	if err := d.putCircuit("ring", ringCircuit(2000)); err != nil {
		return err
	}

	// Request 3: the armed fault turns it away with 503.
	code, hdr, body, err := d.doRaw("GET", "/v1/circuits", "")
	if err != nil {
		return err
	}
	if code != http.StatusServiceUnavailable {
		return fmt.Errorf("fault-armed request = %d (%s), want 503", code, body)
	}
	faultID := hdr.Get("X-Request-Id")

	// A bulk request sheds under the 1-byte memory budget.
	code, hdr, body, err = d.doRaw("POST", "/v1/match/batch",
		`{"circuit":"alpha","requests":[{"pattern":"NAND2"}]}`)
	if err != nil {
		return err
	}
	if code != http.StatusTooManyRequests {
		return fmt.Errorf("batch under memory shed = %d (%s), want 429", code, body)
	}
	shedID := hdr.Get("X-Request-Id")

	// A single match stays live; matching a 4-ring against a 2000-ring
	// finds nothing but walks the whole Phase I relabeling, far past 1ms.
	code, hdr, body, err = d.doRaw("POST", "/v1/match", fmt.Sprintf(
		`{"circuit":"ring","netlist":%s,"subckt":"ringpat"}`, mustJSON(ringPattern(4))))
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("slow match = %d (%s), want 200", code, body)
	}
	slowID := hdr.Get("X-Request-Id")

	for _, check := range []struct{ id, reason string }{
		{faultID, "error"}, {shedID, "shed"}, {slowID, "slow"},
	} {
		if check.id == "" {
			return fmt.Errorf("the %s response carried no X-Request-Id header", check.reason)
		}
		tls, err := d.findTimelines(check.id)
		if err != nil {
			return fmt.Errorf("flight recorder lookup for the %s request: %w", check.reason, err)
		}
		if len(tls) != 1 {
			return fmt.Errorf("flight recorder holds %d timelines for %s, want 1", len(tls), check.id)
		}
		if tls[0].KeepReason != check.reason {
			return fmt.Errorf("request %s kept for %q, want %q", check.id, tls[0].KeepReason, check.reason)
		}
	}

	// The slow match's timeline reconstructs its path through the daemon.
	tls, err := d.findTimelines(slowID)
	if err != nil {
		return err
	}
	kinds := map[string]bool{}
	for _, sp := range tls[0].Spans {
		kinds[sp.Kind] = true
	}
	for _, kind := range []string{"queue-wait", "store-get", "phase1", "phase2"} {
		if !kinds[kind] {
			return fmt.Errorf("slow match timeline has no %s span (spans: %+v)", kind, tls[0].Spans)
		}
	}
	if tls[0].DurationUS < 1000 {
		return fmt.Errorf("slow match recorded %dµs, but was kept as slow at a 1ms threshold", tls[0].DurationUS)
	}

	// The list endpoint's outcome filter isolates the shed.
	var list struct {
		Requests []timeline `json:"requests"`
	}
	if err := d.do("GET", "/debug/requests?outcome=shed", "", &list); err != nil {
		return err
	}
	if len(list.Requests) != 1 || list.Requests[0].RequestID != shedID {
		return fmt.Errorf("outcome=shed returned %+v, want exactly the shed request %s", list.Requests, shedID)
	}

	mets, err := d.metrics()
	if err != nil {
		return err
	}
	if mets["subgeminid_slow_requests_total"] < 1 {
		return fmt.Errorf("subgeminid_slow_requests_total = %v, want >= 1", mets["subgeminid_slow_requests_total"])
	}
	if mets[`subgeminid_flight_recorder_kept_total{reason="shed"}`] < 1 {
		return fmt.Errorf("flight_recorder_kept_total{reason=shed} = %v, want >= 1",
			mets[`subgeminid_flight_recorder_kept_total{reason="shed"}`])
	}
	fmt.Printf("  chaos: recorder kept shed=%s fault=%s slow=%s (slow took %dµs)\n",
		shedID, faultID, slowID, tls[0].DurationUS)
	return d.stop()
}

func mustJSON(s string) string {
	raw, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// daemon is one running subgeminid process plus its base URL.
type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon launches the binary on an ephemeral port with any extra
// flags and waits for its "listening on" line.
func startDaemon(bin, dataDir string, extra ...string) (*daemon, error) {
	args := append([]string{
		"-addr", "127.0.0.1:0", "-data-dir", dataDir, "-globals", "VDD,GND", "-drain", "10s",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println("  daemon:", line)
		if addr, ok := strings.CutPrefix(line, "listening on "); ok {
			d.base = "http://" + strings.TrimSpace(addr)
			// Keep draining stdout so the daemon never blocks on a full pipe.
			go func() {
				for sc.Scan() {
					fmt.Println("  daemon:", sc.Text())
				}
			}()
			return d, nil
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, fmt.Errorf("daemon exited before reporting its listen address")
}

// stop shuts the daemon down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		return fmt.Errorf("daemon did not exit within 30s of SIGTERM")
	}
}

// kill is the deferred safety net; stop() already waited in the happy path.
func (d *daemon) kill() {
	if d.cmd.ProcessState == nil {
		d.cmd.Process.Kill()
		d.cmd.Wait()
	}
}

// doRaw issues one request and returns status, headers and body without
// treating error statuses as failures — chaos scenarios assert on them.
func (d *daemon) doRaw(method, path, body string) (int, http.Header, string, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, d.base+path, rd)
	if err != nil {
		return 0, nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, strings.TrimSpace(string(raw)), nil
}

func (d *daemon) statusOf(method, path, body string) (int, error) {
	code, _, _, err := d.doRaw(method, path, body)
	return code, err
}

// do is the happy-path variant: non-2xx is an error, 2xx decodes into out.
func (d *daemon) do(method, path, body string, out any) error {
	code, _, raw, err := d.doRaw(method, path, body)
	if err != nil {
		return err
	}
	if code >= 300 {
		return fmt.Errorf("%s %s: %d: %s", method, path, code, raw)
	}
	if out != nil {
		return json.Unmarshal([]byte(raw), out)
	}
	return nil
}

func (d *daemon) putCircuit(name, src string) error {
	return d.do("PUT", "/v1/circuits/"+name, src, nil)
}

func (d *daemon) match(circuit, pattern string) (int, error) {
	body := fmt.Sprintf(`{"circuit":%q,"pattern":%q}`, circuit, pattern)
	var resp struct {
		Count int `json:"count"`
	}
	if err := d.do("POST", "/v1/match", body, &resp); err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// submitMatchJob submits an async match job with an inline ring pattern;
// timeoutMS of 0 leaves the job unbounded (jobs have no default timeout).
func (d *daemon) submitMatchJob(circuit, netlist, subckt string, timeoutMS int) (string, error) {
	payload := map[string]any{
		"kind": "match",
		"match": map[string]any{
			"circuit": circuit, "netlist": netlist, "subckt": subckt,
		},
	}
	if timeoutMS > 0 {
		payload["match"].(map[string]any)["timeout_ms"] = timeoutMS
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return "", err
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := d.do("POST", "/v1/jobs", string(raw), &view); err != nil {
		return "", err
	}
	return view.ID, nil
}

func (d *daemon) jobState(id string) (state, jerr string, err error) {
	var view struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := d.do("GET", "/v1/jobs/"+id, "", &view); err != nil {
		return "", "", err
	}
	return view.State, view.Error, nil
}

// waitJobState polls until the job reaches the wanted state; a terminal
// state other than the wanted one fails immediately.
func (d *daemon) waitJobState(id, want string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		state, jerr, err := d.jobState(id)
		if err != nil {
			return err
		}
		if state == want {
			return nil
		}
		switch state {
		case "done", "failed", "cancelled":
			return fmt.Errorf("job %s ended %q (%s) while waiting for %q", id, state, jerr, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s still %q after %v, want %q", id, state, patience, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// metrics fetches /metrics into a name-or-series → value map; labeled
// series keep their label braces in the key.
func (d *daemon) metrics() (map[string]float64, error) {
	_, _, raw, err := d.doRaw("GET", "/metrics", "")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(raw, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, nil
}

// waitInflight polls /metrics until at least n matches are in flight.
func (d *daemon) waitInflight(n int, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		mets, err := d.metrics()
		if err != nil {
			return err
		}
		if int(mets["subgeminid_matches_inflight"]) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("matches_inflight stayed %v after %v, want >= %d",
				mets["subgeminid_matches_inflight"], patience, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutines reads the daemon's goroutine count from its pprof endpoint,
// closing idle client connections first so keep-alive handler goroutines
// do not inflate the sample.
func (d *daemon) goroutines() (int, error) {
	http.DefaultClient.CloseIdleConnections()
	_, _, raw, err := d.doRaw("GET", "/debug/pprof/goroutine?debug=1", "")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(raw, "\n")
	var n int
	if _, err := fmt.Sscanf(line, "goroutine profile: total %d", &n); err != nil {
		return 0, fmt.Errorf("parsing %q: %w", line, err)
	}
	return n, nil
}

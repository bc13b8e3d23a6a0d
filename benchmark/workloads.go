package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"subgemini/internal/delta"
	"subgemini/internal/stdcell"
)

// Operation roles.  Every workload has one main read ("req": a match, a
// sweep, a re-match or an extract job) and one write ("write": a circuit
// upload or an edit batch); the end-to-end metrics are named by role so
// that every workload reports the same set.
const (
	roleReq   = "req"
	roleWrite = "write"
)

// workload is one traffic mix against one daemon.
type workload struct {
	name    string
	why     string
	clients int
	// prepare generates the workload's inputs and oracles from the seed,
	// before any daemon runs.
	prepare func(seed int64) (*plan, error)
}

// plan is a prepared workload.
type plan struct {
	// setup loads the resident state a freshly booted daemon needs.
	setup func(h *httpClient) error
	// iterate runs one closed-loop iteration for worker w.
	iterate func(w *worker) error
	// layers are the inputs the in-process layer pass times.
	layers layerInputs
}

var workloads = []*workload{
	{
		name:    "match-rand",
		why:     "random logic: every match after an upload runs Phase I and II in full and false candidates dominate Phase II",
		clients: 2,
		prepare: prepareMatchRand,
	},
	{
		name:    "sweep-tiled",
		why:     "cell arrays: a 12-cell library sweep shares one Phase I labelling and has few false candidates",
		clients: 1,
		prepare: prepareSweepTiled,
	},
	{
		name:    "eco-patch",
		why:     "pin-rewire edit batches beside re-matches on one resident circuit: edit log, CSR patching, incremental replay",
		clients: 1,
		prepare: prepareEcoPatch,
	},
	{
		name:    "extract-jobs",
		why:     "transistor-to-gate extraction through the async job engine, the paper's use case",
		clients: 2,
		prepare: prepareExtractJobs,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one timed operation: a request, or for an extract job the submit
// plus every poll up to completion.
type op struct {
	role    string
	rid     string // X-Request-Id of the operation's first request
	start   time.Time
	lat     time.Duration
	bytes   int  // response bytes of the final request
	matched int  // devices inside the instances the operation reported
	replay  bool // the daemon answered from its versioned result cache
	polls   int
}

// errWindowOver ends a client's loop once the measured window has passed.
var errWindowOver = errors.New("window over")

// worker is one closed-loop client: it sends its next request only after
// the previous one completed.
type worker struct {
	id      int
	h       *httpClient
	iter    int
	seq     int
	measure time.Time // ops starting before this are warm-up
	end     time.Time

	ops       []op
	attempted int
	failed    int
	errs      []string

	version uint64 // eco-patch: the circuit version the last PATCH returned
}

// do runs one operation.  f issues its requests, checks the responses, and
// fills o.  Ops that start inside the measured window are kept as samples;
// every op counts as attempted, and an op whose response is wrong or
// missing counts as failed.
func (w *worker) do(role string, f func(o *op) error) error {
	start := time.Now()
	if !start.Before(w.end) {
		return errWindowOver
	}
	w.seq++
	o := op{role: role, rid: fmt.Sprintf("c%d-%s-%d", w.id, role, w.seq), start: start}
	w.attempted++
	if err := f(&o); err != nil {
		w.failed++
		w.errs = append(w.errs, fmt.Sprintf("client %d %s %s: %v", w.id, role, o.rid, err))
		return err
	}
	if !start.Before(w.measure) {
		w.ops = append(w.ops, o)
	}
	return nil
}

// drive runs the plan's clients against the daemon for a warm-up followed
// by the measured window and returns every worker.  Each client stops at
// the end of the window or at its first failure.
func drive(h *httpClient, p *plan, clients int, warm, window time.Duration) []*worker {
	start := time.Now()
	ws := make([]*worker, clients)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = &worker{id: i, h: h, measure: start.Add(warm), end: start.Add(warm + window), version: 1}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				if err := p.iterate(w); err != nil {
					return
				}
				w.iter++
			}
		}(ws[i])
	}
	wg.Wait()
	return ws
}

// call issues one request, records its latency and response size in o,
// and decodes the JSON response into out (when non-nil), failing unless the
// status is want.
func call(h *httpClient, o *op, method, path, rid string, body []byte, want int, out any) error {
	resp, status, lat, err := h.call(method, path, rid, body)
	o.lat, o.bytes = lat, len(resp)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, status, resp)
	}
	if out != nil {
		if err := json.Unmarshal(resp, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request bodies are plain structs and maps
	}
	return b
}

// circuitInfo is the part of a circuit upload or edit response the
// benchmark checks.
type circuitInfo struct {
	Devices int    `json:"devices"`
	Version uint64 `json:"version"`
}

// putCircuit uploads c under name and checks the stored device count.
func putCircuit(w *worker, name string, c *circuit) error {
	return w.do(roleWrite, func(o *op) error {
		var info circuitInfo
		if err := call(w.h, o, http.MethodPut, "/v1/circuits/"+name, o.rid, []byte(c.text), http.StatusOK, &info); err != nil {
			return err
		}
		if info.Devices != c.devices || info.Version != 1 {
			return fmt.Errorf("PUT %s: stored %d devices at version %d, want %d at version 1", c.name, info.Devices, info.Version, c.devices)
		}
		return nil
	})
}

// matchResponse is the part of a POST /v1/match response the benchmark
// checks.
type matchResponse struct {
	Count     int        `json:"count"`
	Instances []struct{} `json:"instances"`
	Version   uint64     `json:"version"`
	Stats     struct {
		MatchedDevices int `json:"matched_devices"`
	} `json:"stats"`
	Incremental *struct {
		Mode string `json:"mode"`
	} `json:"incremental"`
}

// match asks for pattern in the named circuit and checks the count.
func match(h *httpClient, o *op, circuitName, pattern string, want int) (*matchResponse, error) {
	var r matchResponse
	body := mustJSON(map[string]string{"circuit": circuitName, "pattern": pattern})
	if err := call(h, o, http.MethodPost, "/v1/match", o.rid, body, http.StatusOK, &r); err != nil {
		return nil, err
	}
	if r.Count != want || len(r.Instances) != want {
		return nil, fmt.Errorf("%s in %s: count %d with %d instances, want %d", pattern, circuitName, r.Count, len(r.Instances), want)
	}
	o.matched = r.Stats.MatchedDevices
	o.replay = r.Incremental != nil && r.Incremental.Mode == "replay"
	return &r, nil
}

// putLibrary stores the sweep library; every workload's resident state
// includes it.
func putLibrary(h *httpClient) error {
	return call(h, &op{}, http.MethodPut, "/v1/libraries/lib12", "", mustJSON(map[string][]string{"patterns": sweepLibrary}), http.StatusOK, nil)
}

// prepareMatchRand: two clients, each owning one circuit name, upload a
// rand4000 variant and then match each of the eight patterns once.  The
// upload invalidates the daemon's result cache, so every match is cold.
func prepareMatchRand(seed int64) (*plan, error) {
	variants, err := matchRandInputs(seed)
	if err != nil {
		return nil, err
	}
	return &plan{
		setup: putLibrary,
		iterate: func(w *worker) error {
			c := variants[(w.id+2*w.iter)%len(variants)]
			name := fmt.Sprintf("rand-c%d", w.id)
			if err := putCircuit(w, name, c); err != nil {
				return err
			}
			for _, pat := range matchPatterns {
				err := w.do(roleReq, func(o *op) error {
					_, err := match(w.h, o, name, pat, c.expect[pat])
					return err
				})
				if err != nil {
					return err
				}
			}
			return nil
		},
		layers: layerInputs{circuits: variants[:1], patterns: matchPatterns},
	}, nil
}

// sweepResponse is the part of a POST /v1/sweep response the benchmark
// checks.
type sweepResponse struct {
	Replayed int `json:"replayed"`
	Results  []struct {
		Pattern string `json:"pattern"`
		Alias   string `json:"alias"`
		Count   int    `json:"count"`
		Stats   struct {
			MatchedDevices int `json:"matched_devices"`
		} `json:"stats"`
	} `json:"results"`
}

// prepareSweepTiled: one client uploads the next tiled design and sweeps
// the stored 12-cell library over it with two sweep workers.
func prepareSweepTiled(seed int64) (*plan, error) {
	pool, err := tiledPool(seed)
	if err != nil {
		return nil, err
	}
	if _, err := sweepExpect(pool); err != nil {
		return nil, err
	}
	body := mustJSON(map[string]any{"circuit": "tiled", "library": "lib12", "workers": 2})
	return &plan{
		setup: putLibrary,
		iterate: func(w *worker) error {
			c := pool[w.iter%len(pool)]
			if err := putCircuit(w, "tiled", c); err != nil {
				return err
			}
			return w.do(roleReq, func(o *op) error {
				var r sweepResponse
				if err := call(w.h, o, http.MethodPost, "/v1/sweep", o.rid, body, http.StatusOK, &r); err != nil {
					return err
				}
				if len(r.Results) != len(sweepLibrary) {
					return fmt.Errorf("sweep of %s: %d results, want %d", c.name, len(r.Results), len(sweepLibrary))
				}
				for _, pr := range r.Results {
					if want := c.expect[pr.Pattern]; pr.Count != want {
						return fmt.Errorf("sweep of %s: %s count %d, want %d", c.name, pr.Pattern, pr.Count, want)
					}
					if pr.Alias == "" {
						o.matched += pr.Stats.MatchedDevices
					}
				}
				o.replay = r.Replayed > 0
				return nil
			})
		},
		layers: layerInputs{circuits: pool, patterns: sweepLibrary},
	}, nil
}

// prepareEcoPatch: one client alternately applies and reverts pin-rewire
// batches on one resident rand4000 and re-matches the next pattern after
// each edit.  Setup uploads the circuit and primes the result cache with
// one match per pattern, so re-matches replay from it.
func prepareEcoPatch(seed int64) (*plan, error) {
	eco, err := ecoInputs(seed)
	if err != nil {
		return nil, err
	}
	c := eco.circuit
	return &plan{
		setup: func(h *httpClient) error {
			if err := putLibrary(h); err != nil {
				return err
			}
			if err := call(h, &op{}, http.MethodPut, "/v1/circuits/eco", "", []byte(c.text), http.StatusOK, nil); err != nil {
				return err
			}
			for _, pat := range matchPatterns {
				if _, err := match(h, &op{}, "eco", pat, c.expect[pat]); err != nil {
					return err
				}
			}
			return nil
		},
		iterate: func(w *worker) error {
			ops, pat := eco.step(w.iter)
			err := w.do(roleWrite, func(o *op) error {
				var r struct {
					Circuit circuitInfo `json:"circuit"`
					Applied int         `json:"applied"`
				}
				if err := call(w.h, o, http.MethodPatch, "/v1/circuits/eco", o.rid, mustJSON(map[string][]delta.Op{"ops": ops}), http.StatusOK, &r); err != nil {
					return err
				}
				if r.Circuit.Version != w.version+1 || r.Applied != len(ops) {
					return fmt.Errorf("PATCH %d: version %d with %d ops applied, want version %d with %d", w.iter, r.Circuit.Version, r.Applied, w.version+1, len(ops))
				}
				w.version++
				return nil
			})
			if err != nil {
				return err
			}
			return w.do(roleReq, func(o *op) error {
				r, err := match(w.h, o, "eco", pat, eco.expect[w.iter%ecoPeriod])
				if err == nil && r.Version != w.version {
					err = fmt.Errorf("re-match after PATCH %d ran at version %d, want %d", w.iter, r.Version, w.version)
				}
				return err
			})
		},
		layers: layerInputs{circuits: []*circuit{c}, patterns: matchPatterns, eco: eco},
	}, nil
}

// jobView is the part of a job record the benchmark reads.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Extractions []struct {
			Cell  string `json:"cell"`
			Count int    `json:"count"`
		} `json:"extractions"`
	} `json:"result"`
}

// jobPollEvery is the extract-jobs client's poll interval.
const jobPollEvery = 2 * time.Millisecond

// prepareExtractJobs: two clients each upload the next transistor netlist
// of the pool, submit an extract job that stores the gate-level result,
// and poll the job until it is done.
func prepareExtractJobs(seed int64) (*plan, error) {
	pool, err := extractPool(seed)
	if err != nil {
		return nil, err
	}
	return &plan{
		setup: putLibrary,
		iterate: func(w *worker) error {
			c := pool[(w.id+2*w.iter)%len(pool)]
			name := fmt.Sprintf("x-c%d", w.id)
			if err := putCircuit(w, name, c); err != nil {
				return err
			}
			body := mustJSON(map[string]any{"kind": "extract", "extract": map[string]string{"circuit": name, "store_as": name + "-gates"}})
			return w.do(roleReq, func(o *op) error {
				var v jobView
				if err := call(w.h, o, http.MethodPost, "/v1/jobs", o.rid, body, http.StatusAccepted, &v); err != nil {
					return err
				}
				for v.State != "done" {
					if v.State == "failed" || v.State == "cancelled" {
						return fmt.Errorf("extract job %s on %s %s: %s", v.ID, c.name, v.State, v.Error)
					}
					time.Sleep(jobPollEvery)
					o.polls++
					if err := call(w.h, o, http.MethodGet, "/v1/jobs/"+v.ID, fmt.Sprintf("%s-p%d", o.rid, o.polls), nil, http.StatusOK, &v); err != nil {
						return err
					}
				}
				// From submit to the reply of the poll that saw the job done.
				o.lat = time.Since(o.start)
				return checkExtraction(o, c, &v)
			})
		},
		layers: layerInputs{circuits: pool, patterns: sweepLibrary},
	}, nil
}

// checkExtraction compares a finished extract job with the in-process
// extraction of the same netlist and, for tiled designs, with the cell
// census.
func checkExtraction(o *op, c *circuit, v *jobView) error {
	if v.Result == nil {
		return fmt.Errorf("extract job %s on %s: no result", v.ID, c.name)
	}
	got := map[string]int{}
	for _, x := range v.Result.Extractions {
		got[x.Cell] = x.Count
		if cell := stdcell.Get(x.Cell); cell != nil {
			o.matched += x.Count * cell.NumTransistors()
		}
	}
	for cell, want := range c.expect {
		if got[cell] != want {
			return fmt.Errorf("extract of %s: %s count %d, in-process extraction gives %d", c.name, cell, got[cell], want)
		}
	}
	for cell, want := range c.placed {
		if got[cell] != want {
			return fmt.Errorf("extract of %s: %s count %d, census places %d", c.name, cell, got[cell], want)
		}
	}
	if len(got) != len(c.expect) {
		return fmt.Errorf("extract of %s: %d cells reported, want %d", c.name, len(got), len(c.expect))
	}
	return nil
}

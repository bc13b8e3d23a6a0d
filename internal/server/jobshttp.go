package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"subgemini/internal/extract"
	"subgemini/internal/jobs"
	"subgemini/internal/netlist"
	"subgemini/internal/obs"
	"subgemini/internal/stdcell"
	"subgemini/internal/store"
)

// Job kinds accepted by POST /v1/jobs.
const (
	jobKindMatch   = "match"
	jobKindBatch   = "batch"
	jobKindExtract = "extract"
	jobKindSweep   = "sweep"
)

// JobRequest is the body of POST /v1/jobs: a kind plus exactly the payload
// for that kind.  A match, batch or sweep job runs what the synchronous
// endpoint runs, with the same answers and per-item statuses, but on the
// engine's worker pool and outside the HTTP request's deadline envelope —
// that is its purpose (see Server.envelope) — so a job has no default
// timeout; set "timeout_ms" explicitly to bound one.
type JobRequest struct {
	Kind    string          `json:"kind"`
	Match   *MatchRequest   `json:"match,omitempty"`
	Batch   *BatchRequest   `json:"batch,omitempty"`
	Extract *ExtractRequest `json:"extract,omitempty"`
	Sweep   *SweepRequest   `json:"sweep,omitempty"`
}

// ExtractRequest asks for cell extraction (transistors → gates) against a
// stored circuit.  The stored circuit itself is never modified: extraction
// runs on a private clone.  "cells" names built-in library cells (empty
// plus no "netlist" means the whole built-in library); "netlist" supplies
// a user pattern library as .SUBCKT source.  "store_as" saves the
// extracted gate-level result as a new stored circuit.
type ExtractRequest struct {
	Circuit        string   `json:"circuit,omitempty"`
	Cells          []string `json:"cells,omitempty"`
	Netlist        string   `json:"netlist,omitempty"`
	Globals        []string `json:"globals,omitempty"`
	Prefix         string   `json:"prefix,omitempty"`
	StoreAs        string   `json:"store_as,omitempty"`
	IncludeNetlist bool     `json:"include_netlist,omitempty"`
	TimeoutMS      int      `json:"timeout_ms,omitempty"`
}

// ExtractionJSON is one cell's extraction count.
type ExtractionJSON struct {
	Cell  string `json:"cell"`
	Count int    `json:"count"`
}

// ExtractResponse is the result payload of a finished extract job.
type ExtractResponse struct {
	Circuit     string           `json:"circuit"`
	Extractions []ExtractionJSON `json:"extractions"`
	Devices     int              `json:"devices"`
	Nets        int              `json:"nets"`
	StoredAs    string           `json:"stored_as,omitempty"`
	Netlist     string           `json:"netlist,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.shedBulk(w, r, "jobs") {
		return
	}
	var req JobRequest
	if e := decodeBody(r, &req); e != nil {
		writeError(w, e)
		return
	}
	runner, e := s.jobRunner(&req)
	if e != nil {
		writeError(w, e)
		return
	}
	// Re-marshal the decoded request so the job record stores exactly what
	// the engine will run (defaults resolved, unknown fields dropped).
	raw, err := json.Marshal(&req)
	if err != nil {
		writeError(w, errf(http.StatusInternalServerError, "encoding job request: %v", err))
		return
	}
	// The job inherits the submitting request's telemetry ID: the async run
	// gets its own timeline in the flight recorder, findable by the same ID
	// this response's X-Request-Id header carries.
	rid := obs.RequestID(r.Context())
	view, err := s.jobs.SubmitWithRequestID(req.Kind, rid, raw, s.observeJobRunner(req.Kind, rid, runner))
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, errf(http.StatusServiceUnavailable, "job queue full; retry later or raise -job-queue"))
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, errf(http.StatusServiceUnavailable, "daemon shutting down"))
	default:
		writeError(w, errf(http.StatusInternalServerError, "submitting job: %v", err))
	}
}

// jobRunner validates a job request and builds the closure the engine will
// run.  Validation happens here, synchronously, so malformed jobs are
// rejected at submit time with a 400 instead of surfacing later as a
// failed job.
func (s *Server) jobRunner(req *JobRequest) (jobs.Runner, *httpError) {
	switch req.Kind {
	case jobKindMatch:
		if req.Match == nil {
			return nil, errf(http.StatusBadRequest, `job kind "match" needs a "match" payload`)
		}
		if e := validateMatch(req.Match); e != nil {
			return nil, e
		}
		mr := req.Match
		return func(ctx context.Context) (any, error) {
			resp, release, e := s.runMatch(ctx, mr, true)
			if e != nil {
				return nil, e
			}
			defer release()
			return renderCompact(resp), nil
		}, nil
	case jobKindBatch:
		if req.Batch == nil || len(req.Batch.Requests) == 0 {
			return nil, errf(http.StatusBadRequest, `job kind "batch" needs a "batch" payload with "requests"`)
		}
		for i := range req.Batch.Requests {
			if e := validateMatch(&req.Batch.Requests[i]); e != nil {
				return nil, errf(http.StatusBadRequest, "batch item %d: %s", i, e.msg)
			}
		}
		br := req.Batch
		br.fillCircuits()
		return func(ctx context.Context) (any, error) {
			return s.runBatch(ctx, br, true), nil
		}, nil
	case jobKindExtract:
		if req.Extract == nil {
			return nil, errf(http.StatusBadRequest, `job kind "extract" needs an "extract" payload`)
		}
		if req.Extract.StoreAs != "" && !store.ValidName(req.Extract.StoreAs) {
			return nil, errf(http.StatusBadRequest, "invalid store_as name %q", req.Extract.StoreAs)
		}
		er := req.Extract
		specs, err := s.extractSpecs(er)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "%v", err)
		}
		return func(ctx context.Context) (any, error) {
			return s.runExtractJob(ctx, er, specs)
		}, nil
	case jobKindSweep, "incremental-sweep": // the second, a synonym kept for existing clients
		if req.Sweep == nil {
			return nil, errf(http.StatusBadRequest, `job kind %q needs a "sweep" payload`, req.Kind)
		}
		if e := validateSweep(req.Sweep); e != nil {
			return nil, e
		}
		sr := req.Sweep
		return func(ctx context.Context) (any, error) {
			resp, e := s.runSweep(ctx, sr, true)
			if e != nil {
				return nil, e
			}
			return resp, nil
		}, nil
	default:
		return nil, errf(http.StatusBadRequest,
			`unknown job kind %q (want "match", "batch", "extract" or "sweep")`, req.Kind)
	}
}

// runExtractJob clones the selected circuit and extracts specs, the
// request's cells resolved at submit time, from the clone, largest first,
// in the job lane's envelope.  The stored original is untouched; store_as
// installs the gate-level result through putCircuit, as an upload would.
func (s *Server) runExtractJob(ctx context.Context, req *ExtractRequest, specs []extract.Spec) (*ExtractResponse, error) {
	ctx, _, done, _ := s.envelope(ctx, req.TimeoutMS, true)
	defer done()
	h, e := s.acquireCircuit(ctx, req.Circuit)
	if e != nil {
		return nil, e
	}

	// Extraction mutates its circuit in place, so it must run on a private
	// clone, which keeps the stored circuit's global marks.  Nothing after
	// the clone reads the stored circuit, so the handle goes right away.
	ckt := h.Circuit().Clone()
	name := h.Name()
	h.Release()
	exts, err := extract.Specs(ckt, specs, extract.Options{
		Globals: req.Globals,
		Prefix:  req.Prefix,
		Cancel:  ctx.Err,
	})
	if err != nil {
		return nil, err
	}

	resp := &ExtractResponse{
		Circuit:     name,
		Extractions: make([]ExtractionJSON, 0, len(exts)),
		Devices:     ckt.NumDevices(),
		Nets:        ckt.NumNets(),
	}
	for _, x := range exts {
		resp.Extractions = append(resp.Extractions, ExtractionJSON{Cell: x.Cell, Count: x.Count})
	}
	// The netlist renders before the install: the store owns ckt from then
	// on, and a PATCH on store_as may edit it in place.
	if req.IncludeNetlist {
		var buf strings.Builder
		if err := netlist.WriteCircuit(&buf, ckt); err != nil {
			return nil, fmt.Errorf("rendering extracted netlist: %w", err)
		}
		resp.Netlist = buf.String()
	}
	if req.StoreAs != "" {
		if _, e := s.putCircuit(ctx, req.StoreAs, ckt, ""); e != nil {
			return nil, e
		}
		resp.StoredAs = req.StoreAs
	}
	return resp, nil
}

// extractSpecs resolves an extract request's pattern selection into specs.
func (s *Server) extractSpecs(req *ExtractRequest) ([]extract.Spec, error) {
	var specs []extract.Spec
	if req.Netlist != "" {
		f, err := netlist.ParseString(req.Netlist, "patterns")
		if err != nil {
			return nil, fmt.Errorf("pattern netlist: %w", err)
		}
		specs, err = extract.SpecsFromNetlist(f)
		if err != nil {
			return nil, fmt.Errorf("pattern netlist: %w", err)
		}
	}
	switch {
	case len(req.Cells) > 0:
		for _, name := range req.Cells {
			if stdcell.Get(name) == nil {
				return nil, fmt.Errorf("no built-in cell named %q", name)
			}
			specs = append(specs, s.cachedSpec(name))
		}
	case req.Netlist == "":
		for _, def := range stdcell.All() {
			specs = append(specs, s.cachedSpec(def.Name))
		}
	}
	return specs, nil
}

// cachedSpec builds an extraction spec for a built-in cell through the
// compiled-pattern cache, so repeated extract jobs reuse one compiled
// template (and its hit shows up in the cache counters) instead of
// rebuilding the cell's pattern per job; extraction only reads it.  Port
// order is read from the template: pattern construction adds ports first,
// so index order is declaration order.
func (s *Server) cachedSpec(name string) extract.Spec {
	pat, _, err := s.cache.resolve(name, true)
	if err != nil {
		// The caller verified the cell exists; a race with cache eviction
		// still recompiles rather than fails.
		return extract.SpecFromCell(stdcell.Get(name))
	}
	ports := pat.Ports()
	names := make([]string, len(ports))
	for i, p := range ports {
		names[i] = p.Name
	}
	return extract.Spec{Name: name, Ports: names, Pattern: pat}
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.List())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	view, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, errf(http.StatusNotFound, "no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	view, err := s.jobs.Cancel(r.PathValue("id"))
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, view)
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, errf(http.StatusNotFound, "no job %q", r.PathValue("id")))
	case errors.Is(err, jobs.ErrFinished):
		writeError(w, errf(http.StatusConflict, "job %q already finished", r.PathValue("id")))
	default:
		writeError(w, errf(http.StatusInternalServerError, "cancelling job: %v", err))
	}
}

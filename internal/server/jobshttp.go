package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

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
	// jobKindIncSweep runs the same payload as "sweep" but lets each
	// per-pattern run replay from the versioned result cache; instances are
	// bit-identical to a full sweep, only the work differs.
	jobKindIncSweep = "incremental-sweep"
)

// JobRequest is the body of POST /v1/jobs: a kind plus exactly the payload
// for that kind.  Jobs run on the engine's worker pool, outside the HTTP
// request's deadline envelope — that is their purpose — so a match job has
// no default timeout; set "timeout_ms" explicitly to bound one.
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
			resp, release, err := s.runMatchJob(ctx, mr)
			if err != nil {
				return nil, err
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
			return s.runBatchJob(ctx, br), nil
		}, nil
	case jobKindExtract:
		if req.Extract == nil {
			return nil, errf(http.StatusBadRequest, `job kind "extract" needs an "extract" payload`)
		}
		if req.Extract.StoreAs != "" && !store.ValidName(req.Extract.StoreAs) {
			return nil, errf(http.StatusBadRequest, "invalid store_as name %q", req.Extract.StoreAs)
		}
		er := req.Extract
		return func(ctx context.Context) (any, error) {
			return s.runExtractJob(ctx, er)
		}, nil
	case jobKindSweep, jobKindIncSweep:
		if req.Sweep == nil {
			return nil, errf(http.StatusBadRequest, `job kind %q needs a "sweep" payload`, req.Kind)
		}
		if e := validateSweep(req.Sweep); e != nil {
			return nil, e
		}
		incremental := req.Kind == jobKindIncSweep
		if incremental && !s.incEnabled() {
			return nil, errf(http.StatusBadRequest,
				`job kind "incremental-sweep" is unavailable: the daemon runs with incremental matching disabled (-noincremental)`)
		}
		sr := req.Sweep
		return func(ctx context.Context) (any, error) {
			return s.runSweepJob(ctx, sr, incremental)
		}, nil
	default:
		return nil, errf(http.StatusBadRequest,
			`unknown job kind %q (want "match", "batch", "extract", "sweep", or "incremental-sweep")`, req.Kind)
	}
}

// runMatchJob is the asynchronous twin of runMatch: no admission
// semaphore (the worker pool is the concurrency bound) and no default
// deadline (escaping the request timeout envelope is the point of a job);
// an explicit timeout_ms is honored uncapped.  Like runMatch, it returns
// the result with its handle still held, for the caller to render before
// it calls release: the job record outlives the handle.
func (s *Server) runMatchJob(ctx context.Context, req *MatchRequest) (resp *matchResult, release func(), err error) {
	pat, cacheHit, e := s.resolvePattern(req)
	if e != nil {
		return nil, nil, errors.New(e.msg)
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	h, e := s.acquireCircuit(req.Circuit)
	if e != nil {
		return nil, nil, errors.New(e.msg)
	}
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	resp, err = s.executeMatch(ctx, req, pat, h)
	if err != nil {
		h.Release()
		return nil, nil, err
	}
	resp.CacheHit = cacheHit
	return resp, h.Release, nil
}

// runBatchJob runs a batch sequentially on the job worker; per-item
// failures are recorded in-band, so the job itself only fails on
// cancellation.
func (s *Server) runBatchJob(ctx context.Context, req *BatchRequest) batchResult {
	results := make([]batchItem, len(req.Requests))
	for i := range req.Requests {
		item := batchItem{Index: i, Pattern: req.Requests[i].Pattern}
		resp, release, err := s.runMatchJob(ctx, &req.Requests[i])
		if err != nil {
			item.Status = http.StatusBadRequest
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				item.Status = http.StatusServiceUnavailable
			}
			item.Error = err.Error()
		} else {
			item.Status, item.Match, item.Pattern = http.StatusOK, renderCompact(resp), resp.Pattern
			release()
		}
		results[i] = item
	}
	return batchResult{Results: results}
}

// runExtractJob clones the selected circuit under its read lock and
// extracts the requested cells from the clone, largest first.  The stored
// original is untouched; store_as saves the gate-level result as a new
// circuit.
func (s *Server) runExtractJob(ctx context.Context, req *ExtractRequest) (*ExtractResponse, error) {
	specs, err := s.extractSpecs(req)
	if err != nil {
		return nil, err
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	h, e := s.acquireCircuit(req.Circuit)
	if e != nil {
		return nil, errors.New(e.msg)
	}

	// Extraction mutates its circuit in place, so it must run on a private
	// clone; the read lock covers the clone against a concurrent global
	// re-mark on the shared entry.  Nothing after the clone reads the
	// stored circuit, so the handle goes right away.
	h.RLock()
	ckt := h.Circuit().Clone()
	h.RUnlock()
	name := h.Name()
	globals := append([]string(nil), h.Globals()...)
	h.Release()
	globals = append(globals, req.Globals...)
	exts, err := extract.Specs(ckt, specs, extract.Options{
		Globals: globals,
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
	// The netlist renders before Put: the store owns ckt from then on, and
	// a PATCH on store_as may edit it in place.
	if req.IncludeNetlist {
		var buf strings.Builder
		if err := netlist.WriteCircuit(&buf, ckt); err != nil {
			return nil, fmt.Errorf("rendering extracted netlist: %w", err)
		}
		resp.Netlist = buf.String()
	}
	if req.StoreAs != "" {
		if _, err := s.store.Put(req.StoreAs, ckt); err != nil {
			return nil, fmt.Errorf("storing extracted circuit as %q: %w", req.StoreAs, err)
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
// rebuilding the cell's pattern per job.  Port order is read from the
// clone: pattern construction adds ports first, so index order is
// declaration order.
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

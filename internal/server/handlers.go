package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/obs"
	"subgemini/internal/store"
)

// MatchRequest is the body of POST /v1/match and each element of a batch.
// The pattern comes either from the cache/built-in library by name
// ("pattern") or inline as netlist source ("netlist" plus optional
// "subckt"); inline patterns are compiled into the cache under their
// .SUBCKT name so later requests can use the name alone.  "circuit"
// selects the stored circuit to match against (also settable via the
// ?circuit= query parameter; empty means the default circuit).  The other
// option fields mirror the subgemini CLI flags.
type MatchRequest struct {
	Circuit    string            `json:"circuit,omitempty"`
	Pattern    string            `json:"pattern,omitempty"`
	Netlist    string            `json:"netlist,omitempty"`
	Subckt     string            `json:"subckt,omitempty"`
	Globals    []string          `json:"globals,omitempty"`
	Bind       map[string]string `json:"bind,omitempty"`
	NonOverlap bool              `json:"nonoverlap,omitempty"`
	Max        int               `json:"max,omitempty"`
	Workers    int               `json:"workers,omitempty"`
	TimeoutMS  int               `json:"timeout_ms,omitempty"`

	// SinceVersion, when > 0, floors the incremental replay base: the run
	// only replays from a result-cache capture at this circuit version or
	// newer (older captures force a full, re-capturing run).  Also settable
	// via the ?since_version= query parameter.  Purely an optimization
	// hint — results are identical for every value.
	SinceVersion uint64 `json:"since_version,omitempty"`
}

// InstanceJSON is one verified embedding, as pattern-name → image-name maps.
type InstanceJSON struct {
	Devices map[string]string `json:"devices"`
	Nets    map[string]string `json:"nets"`
}

// StatsJSON is the per-run instrumentation subset exposed to clients.
type StatsJSON struct {
	Instances      int    `json:"instances"`
	MatchedDevices int    `json:"matched_devices"`
	CVSize         int    `json:"cv_size"`
	KeyVertex      string `json:"key_vertex,omitempty"`
	Candidates     int    `json:"candidates"`
	Phase1Passes   int    `json:"phase1_passes"`
	Phase2Passes   int    `json:"phase2_passes"`
	Guesses        int    `json:"guesses"`
	Backtracks     int    `json:"backtracks"`
	Phase1Micros   int64  `json:"phase1_us"`
	Phase2Micros   int64  `json:"phase2_us"`

	// Phase II candidate-region instrumentation; omitted when no ball was
	// extracted.
	RegionRadius   int `json:"region_radius,omitempty"`
	RegionMaxSize  int `json:"region_max_size,omitempty"`
	RegionVertices int `json:"region_vertices,omitempty"`

	// Incremental engine instrumentation; omitted when the run did not go
	// through core.FindIncremental.
	IncrementalMode string `json:"incremental_mode,omitempty"`
	Replayed        int    `json:"replayed,omitempty"`
	Recomputed      int    `json:"recomputed,omitempty"`
}

// MatchResponse is the body of a successful POST /v1/match.  Clients
// decode into it; the server encodes its mirror, matchResult (render.go),
// which must keep the same fields in the same order.
type MatchResponse struct {
	Circuit   string         `json:"circuit"`
	Pattern   string         `json:"pattern"`
	Count     int            `json:"count"`
	Instances []InstanceJSON `json:"instances"`
	Stats     StatsJSON      `json:"stats"`
	CacheHit  bool           `json:"cache_hit"`

	// Version is the edit version of the circuit the match ran against;
	// Incremental reports how the run used the versioned result cache
	// (omitted when the incremental engine did not run).
	Version     uint64           `json:"version,omitempty"`
	Incremental *IncrementalJSON `json:"incremental,omitempty"`
}

// BatchRequest is the body of POST /v1/match/batch.
type BatchRequest struct {
	// Circuit is the default stored-circuit selection for items that do
	// not pick their own; a ?circuit= query parameter fills it when empty.
	Circuit  string         `json:"circuit,omitempty"`
	Requests []MatchRequest `json:"requests"`
}

// fillCircuits resolves the batch's per-item circuit selection: an item's
// own choice wins, then the batch-level default.
func (b *BatchRequest) fillCircuits() {
	if b.Circuit == "" {
		return
	}
	for i := range b.Requests {
		if b.Requests[i].Circuit == "" {
			b.Requests[i].Circuit = b.Circuit
		}
	}
}

// BatchItem is one per-pattern outcome of a batch; failed items carry an
// error and an HTTP-style status instead of a match.
type BatchItem struct {
	Index   int            `json:"index"`
	Pattern string         `json:"pattern,omitempty"`
	Status  int            `json:"status"`
	Error   string         `json:"error,omitempty"`
	Match   *MatchResponse `json:"match,omitempty"`
}

// BatchResponse is the body of a batch reply; the top-level status is 200
// whenever the batch itself was well-formed, with per-item outcomes inside.
// The server encodes its mirror, batchResult (render.go).
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// CircuitInfo describes one stored circuit.  Name is the circuit's own
// (display) name; Key is its store key.  Resident and Snapshot expose the
// store's memory/durability state for the entry.
type CircuitInfo struct {
	Key      string   `json:"key,omitempty"`
	Name     string   `json:"name"`
	Devices  int      `json:"devices"`
	Nets     int      `json:"nets"`
	Globals  []string `json:"globals,omitempty"`
	Version  uint64   `json:"version"`
	Resident bool     `json:"resident"`
	Snapshot bool     `json:"snapshot"`
}

func infoJSON(i store.Info) CircuitInfo {
	name := i.Display
	if name == "" {
		name = i.Name
	}
	return CircuitInfo{
		Key:      i.Name,
		Name:     name,
		Devices:  i.Devices,
		Nets:     i.Nets,
		Globals:  i.Globals,
		Version:  i.Version,
		Resident: i.Resident,
		Snapshot: i.Snapshot,
	}
}

// httpError pairs a client-visible message with a status code.  A job
// fails with it as its error, which unwraps to the matcher's error (the
// job engine tells a cancelled run by context.Canceled).
type httpError struct {
	status int
	msg    string
	err    error
}

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

func (e *httpError) Error() string { return e.msg }
func (e *httpError) Unwrap() error { return e.err }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, e *httpError) {
	writeJSON(w, e.status, map[string]string{"error": e.msg})
}

// decodeBody decodes a JSON request body, mapping oversized bodies to 413
// and malformed JSON to 400.
func decodeBody(r *http.Request, v any) *httpError {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return errf(http.StatusBadRequest, "invalid JSON body: %v", err)
	}
	return nil
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req MatchRequest
	if e := decodeBody(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if req.Circuit == "" {
		req.Circuit = r.URL.Query().Get("circuit")
	}
	if req.SinceVersion == 0 {
		req.SinceVersion = sinceVersion(r)
	}
	resp, release, e := s.runMatch(r.Context(), &req, false)
	if e != nil {
		writeError(w, e)
		return
	}
	defer release()
	body := renderMatch(resp)
	release()
	writeRendered(w, body)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.shedBulk(w, r, "batch") {
		return
	}
	var req BatchRequest
	if e := decodeBody(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, errf(http.StatusBadRequest, `batch has no "requests"`))
		return
	}
	// A body-level circuit selection (or, failing that, a query-level one)
	// applies to every item that does not pick its own.
	if req.Circuit == "" {
		req.Circuit = r.URL.Query().Get("circuit")
	}
	req.fillCircuits()
	writeJSON(w, http.StatusOK, s.runBatch(r.Context(), &req, false))
}

// runBatch runs the items of a batch, synchronous or a job's, as that lane's
// matches (see runMatch), fanned across a pool of MaxConcurrent
// goroutines.  A synchronous item still passes admission control on its
// own, so a wide batch cannot starve single-match requests.  Per-item
// failures are recorded in-band, with the status the item would get alone.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest, job bool) batchResult {
	results := make([]batchItem, len(req.Requests))
	runOne := func(i int) {
		item := batchItem{Index: i, Pattern: req.Requests[i].Pattern}
		resp, release, e := s.runMatch(ctx, &req.Requests[i], job)
		if e != nil {
			item.Status, item.Error = e.status, e.msg
		} else {
			defer release()
			item.Status, item.Match, item.Pattern = http.StatusOK, renderCompact(resp), resp.Pattern
		}
		results[i] = item
	}
	pool := s.cfg.MaxConcurrent
	if pool > len(req.Requests) {
		pool = len(req.Requests)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for p := 0; p < pool; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range req.Requests {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return batchResult{Results: results}
}

// acquireCircuit resolves a request's circuit selection to a store handle,
// under a store-get span.  An empty name means the default circuit, whose
// absence keeps the legacy 409 ("upload one") contract; a named circuit
// that does not exist is 404.
func (s *Server) acquireCircuit(ctx context.Context, name string) (*store.Handle, *httpError) {
	sc := obs.ScopeFromContext(ctx)
	ref := sc.Begin(obs.KindStoreGet, name)
	if name == "" {
		name = DefaultCircuit
	}
	h, err := s.store.Acquire(name)
	sc.End(ref)
	if err == nil {
		sc.Attr(ref, "circuit", h.Name())
		return h, nil
	}
	if errors.Is(err, store.ErrNotFound) {
		if name == DefaultCircuit {
			return nil, errf(http.StatusConflict,
				"no circuit loaded; upload one with POST /v1/circuit or PUT /v1/circuits/{name}")
		}
		return nil, errf(http.StatusNotFound, "no circuit named %q; see GET /v1/circuits", name)
	}
	return nil, errf(http.StatusInternalServerError, "acquiring circuit %q: %v", name, err)
}

// resolvePattern turns a request's pattern selection into its cached
// template, which matching only reads.  Inline patterns are compiled into
// the cache and — when a data directory is configured — persisted so they
// survive restarts.
func (s *Server) resolvePattern(req *MatchRequest) (*graph.Circuit, bool, *httpError) {
	switch {
	case req.Netlist != "":
		pat, err := s.cache.compileNetlist(req.Netlist, req.Subckt, true)
		if err != nil {
			return nil, false, errf(http.StatusBadRequest, "pattern netlist: %v", err)
		}
		if err := s.store.SavePattern(pat.Name, pat); err != nil {
			s.log.Warn("persisting pattern failed", "pattern", pat.Name, "err", err)
		}
		return pat, false, nil
	case req.Pattern != "":
		pat, hit, err := s.cache.resolve(req.Pattern, true)
		if err != nil {
			return nil, false, errf(http.StatusNotFound, "%v", err)
		}
		return pat, hit, nil
	default:
		return nil, false, errf(http.StatusBadRequest, `request needs "pattern" (a cell name) or "netlist" (inline pattern source)`)
	}
}

// maxTimeout caps a synchronous request's timeout_ms, so that a client
// cannot pin a match slot arbitrarily long.
const maxTimeout = 5 * time.Minute

// envelope opens the deadline and admission envelope of a run, the one
// thing the synchronous lane and the job lane do differently.  A
// synchronous request (job false) always runs under a deadline, the
// default or its timeout_ms capped at maxTimeout, and waits for a match
// slot under a match-slot queue-wait span, but not past the deadline: then
// it is turned away with 503.  A job takes no slot, since the job worker
// pool bounds jobs, and runs under a deadline only when its timeout_ms asks
// for one, uncapped: escaping the request deadline is what a job is for.
// timeout is the deadline's length (0 for none); done releases what the
// envelope holds.
func (s *Server) envelope(ctx context.Context, timeoutMS int, job bool) (_ context.Context, timeout time.Duration, done func(), e *httpError) {
	timeout = time.Duration(timeoutMS) * time.Millisecond
	if job {
		if timeout <= 0 {
			return ctx, 0, func() {}, nil
		}
		ctx, cancel := context.WithTimeout(ctx, timeout)
		return ctx, timeout, cancel, nil
	}
	switch {
	case timeout <= 0:
		timeout = s.cfg.DefaultTimeout
	case timeout > maxTimeout:
		timeout = maxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	sc := obs.ScopeFromContext(ctx)
	ref := sc.Begin(obs.KindQueueWait, "match-slot")
	select {
	case s.sem <- struct{}{}:
		sc.End(ref)
		return ctx, timeout, func() { <-s.sem; cancel() }, nil
	case <-ctx.Done():
		sc.End(ref)
		cancel()
		obs.FromContext(ctx).SetCancelled()
		s.met.rejected.Add(1)
		return nil, 0, nil, errf(http.StatusServiceUnavailable,
			"server saturated: no match slot within %v (%d concurrent)", timeout, s.cfg.MaxConcurrent)
	}
}

// runMatch executes one match request end to end, for the synchronous
// endpoint (job false) and for match and batch jobs alike: validation,
// pattern resolution under a cache-lookup span, the lane's envelope,
// circuit acquisition, and the run.  A result's instances point into the
// circuit, which a PATCH may edit in place once no handle holds it, so
// runMatch returns the result with its handle still held: the caller
// renders the result and then calls release.
func (s *Server) runMatch(ctx context.Context, req *MatchRequest, job bool) (resp *matchResult, release func(), e *httpError) {
	if e := validateMatch(req); e != nil {
		return nil, nil, e
	}
	sc := obs.ScopeFromContext(ctx)
	ref := sc.Begin(obs.KindCacheLookup, "pattern")
	pat, cacheHit, e := s.resolvePattern(req)
	sc.End(ref)
	if e != nil {
		return nil, nil, e
	}
	sc.Attr(ref, "pattern", pat.Name)
	if cacheHit {
		sc.Attr(ref, "hit", "true")
	}

	ctx, timeout, done, e := s.envelope(ctx, req.TimeoutMS, job)
	if e != nil {
		return nil, nil, e
	}
	defer done()
	h, e := s.acquireCircuit(ctx, req.Circuit)
	if e != nil {
		return nil, nil, e
	}
	resp, err := s.executeMatch(ctx, req, pat, h)
	if err != nil {
		h.Release()
		return nil, nil, s.matchError(ctx, err, timeout)
	}
	resp.CacheHit = cacheHit
	return resp, h.Release, nil
}

func validateMatch(req *MatchRequest) *httpError {
	if req.Workers > 1 && req.NonOverlap {
		return errf(http.StatusBadRequest, `"workers" > 1 requires overlap semantics; drop "nonoverlap"`)
	}
	if req.Workers > 1 && req.Max > 0 {
		return errf(http.StatusBadRequest, `"workers" > 1 cannot honor "max" deterministically; drop one of them`)
	}
	return nil
}

// matchError maps a matcher error to an HTTP status, marking the request's
// timeline cancelled on the two context-driven outcomes so the flight
// recorder always keeps those requests.
func (s *Server) matchError(ctx context.Context, err error, timeout time.Duration) *httpError {
	var e *httpError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		obs.FromContext(ctx).SetCancelled()
		s.met.timeouts.Add(1)
		e = errf(http.StatusGatewayTimeout, "match exceeded its %v deadline", timeout)
	case errors.Is(err, context.Canceled):
		obs.FromContext(ctx).SetCancelled()
		e = errf(http.StatusServiceUnavailable, "request cancelled")
	default:
		e = errf(http.StatusBadRequest, "match: %v", err)
	}
	e.err = err
	return e
}

// executeMatch runs the match itself against an acquired circuit handle:
// matcher construction sharing the entry's CSR view (see Handle.CSR), the
// run, and result conversion.  A run with "workers" > 1 takes the
// candidate-parallel engine, which neither captures nor replays; every
// other run goes through core.FindIncremental and the result cache.  The
// request's globals apply to this run only; the matcher reads the shared
// circuit and the cached pattern and writes neither.
func (s *Server) executeMatch(ctx context.Context, req *MatchRequest, pat *graph.Circuit, h *store.Handle) (*matchResult, error) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	opts := core.Options{
		Globals:      req.Globals,
		Bind:         req.Bind,
		MaxInstances: req.Max,
		Cancel:       s.cancelHook(ctx),
		CSR:          h.CSR(),
		Observe:      obs.ScopeFromContext(ctx),
	}
	if req.NonOverlap {
		opts.Policy = core.NonOverlapping
	}
	m, err := core.NewMatcher(h.Circuit(), opts)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	var inc *IncrementalJSON
	if workers := min(req.Workers, runtime.GOMAXPROCS(0)); workers > 1 {
		res, err = m.FindParallel(pat, workers)
	} else {
		key := delta.PatternKey(pat, opts)
		lRef := opts.Observe.Begin(obs.KindCacheLookup, "result-cache")
		prev, ds, base := s.incLookup(h, key, req.SinceVersion)
		if prev != nil {
			opts.Observe.Attr(lRef, "hit", "true")
			opts.Observe.AttrInt(lRef, "base_version", int64(base))
		}
		opts.Observe.End(lRef)
		var next *core.IncrementalState
		res, next, err = m.FindIncremental(pat, prev, ds)
		if err == nil {
			s.incStore(h, key, next)
			inc = &IncrementalJSON{
				Mode:       res.Report.IncrementalMode,
				Replayed:   res.Report.Replayed,
				Recomputed: res.Report.Recomputed,
			}
			if inc.Mode == "replay" {
				inc.BaseVersion = base
			}
		}
	}
	if err != nil {
		return nil, err
	}
	s.met.observe(pat.Name, &res.Report)

	return &matchResult{
		Circuit:     h.Name(),
		Pattern:     pat.Name,
		Count:       len(res.Instances),
		Instances:   res.Instances,
		Stats:       statsJSON(&res.Report),
		Version:     h.Version(),
		Incremental: inc,
	}, nil
}

// cancelHook adapts a request context to the matcher's cancellation hook,
// with the test instrumentation point folded in.
func (s *Server) cancelHook(ctx context.Context) func() error {
	if s.testCandidateHook == nil {
		return ctx.Err
	}
	return func() error {
		s.testCandidateHook()
		return ctx.Err()
	}
}

// parseCircuitBody reads a netlist request body and flattens it, under a
// parse span and then a flatten span, returning the circuit and the
// source text it was parsed from (which store.PutSource snapshots).  The
// body is read straight into one string, presized from Content-Length up
// to the body limit, and the circuit's names are substrings of it.
func (s *Server) parseCircuitBody(r *http.Request, name string) (*graph.Circuit, string, *httpError) {
	var body strings.Builder
	if n := r.ContentLength; n > 0 {
		body.Grow(int(min(n, s.cfg.MaxBodyBytes)))
	}
	if _, err := io.Copy(&body, r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, "", errf(http.StatusRequestEntityTooLarge, "netlist exceeds %d bytes", tooBig.Limit)
		}
		return nil, "", errf(http.StatusBadRequest, "reading body: %v", err)
	}
	src := body.String()
	sc := obs.ScopeFromContext(r.Context())
	ref := sc.Begin(obs.KindParse, name)
	sc.AttrInt(ref, "bytes", int64(len(src)))
	f, err := netlist.ParseString(src, name)
	sc.End(ref)
	if err != nil {
		return nil, "", errf(http.StatusBadRequest, "parsing netlist: %v", err)
	}
	ref = sc.Begin(obs.KindFlatten, name)
	ckt, err := f.MainCircuit(name)
	sc.End(ref)
	if err != nil {
		return nil, "", errf(http.StatusBadRequest, "building circuit: %v", err)
	}
	return ckt, src, nil
}

// putCircuit installs a circuit under key, under a persist span: every
// install after boot goes through it (PUT, the legacy POST and an extract
// job's store_as).  src is the netlist text an upload was parsed from,
// which becomes the snapshot when a data directory is configured; ""
// (an extraction) lets the store serialize the circuit.  The replaced
// circuit's result-cache entries go with it: no run can use them, since a
// replacement takes a new install stamp (see delta.ResultCache).
func (s *Server) putCircuit(ctx context.Context, key string, ckt *graph.Circuit, src string) (store.Info, *httpError) {
	sc := obs.ScopeFromContext(ctx)
	ref := sc.Begin(obs.KindPersist, key)
	sc.AttrInt(ref, "devices", int64(ckt.NumDevices()))
	var info store.Info
	var err error
	if src == "" {
		info, err = s.store.Put(key, ckt)
	} else {
		info, err = s.store.PutSource(key, ckt, src)
	}
	sc.End(ref)
	if err != nil {
		if store.ValidName(key) {
			return store.Info{}, errf(http.StatusInternalServerError, "storing circuit %q: %v", key, err)
		}
		return store.Info{}, errf(http.StatusBadRequest, "%v", err)
	}
	s.rcache.Invalidate(key)
	return info, nil
}

func (s *Server) handleCircuitPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("name")
	if !store.ValidName(key) {
		writeError(w, errf(http.StatusBadRequest,
			"invalid circuit name %q (want 1-64 chars of [A-Za-z0-9._-], not starting with '.' or '-')", key))
		return
	}
	display := r.URL.Query().Get("name")
	if display == "" {
		display = key
	}
	ckt, src, e := s.parseCircuitBody(r, display)
	if e != nil {
		writeError(w, e)
		return
	}
	info, e := s.putCircuit(r.Context(), key, ckt, src)
	if e != nil {
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, infoJSON(info))
}

func (s *Server) handleCircuitGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.store.Get(r.PathValue("name"))
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no circuit named %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, infoJSON(info))
}

func (s *Server) handleCircuitDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.Delete(name); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			writeError(w, errf(http.StatusNotFound, "no circuit named %q", name))
		} else {
			writeError(w, errf(http.StatusInternalServerError, "deleting circuit %q: %v", name, err))
		}
		return
	}
	s.rcache.Invalidate(name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleCircuitList(w http.ResponseWriter, r *http.Request) {
	infos := s.store.List()
	out := make([]CircuitInfo, len(infos))
	for i, info := range infos {
		out[i] = infoJSON(info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleLegacyCircuitUpload keeps the single-circuit API: the body becomes
// the default circuit (?name= names the circuit itself, not the store
// key).
func (s *Server) handleLegacyCircuitUpload(w http.ResponseWriter, r *http.Request) {
	display := r.URL.Query().Get("name")
	if display == "" {
		display = "circuit"
	}
	ckt, src, e := s.parseCircuitBody(r, display)
	if e != nil {
		writeError(w, e)
		return
	}
	info, e := s.putCircuit(r.Context(), DefaultCircuit, ckt, src)
	if e != nil {
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, infoJSON(info))
}

func (s *Server) handleLegacyCircuitInfo(w http.ResponseWriter, r *http.Request) {
	info, ok := s.store.Get(DefaultCircuit)
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no circuit loaded"))
		return
	}
	writeJSON(w, http.StatusOK, infoJSON(info))
}

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.list())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_, devices, nets := s.CircuitShape()
	queued, running := s.jobs.QueueDepth()
	ext := externalMetrics{
		cache:          s.cache.counters(),
		store:          s.store.Stats(),
		jobs:           s.jobs.Counters(),
		jobsQueued:     queued,
		jobsRunning:    running,
		circuitDevices: devices,
		circuitNets:    nets,
		ready:          s.notReady() == "",
		storeHealthy:   s.store.Healthy(),
		faultsArmed:    faults.Armed(),
		faultsFired:    faults.FiredTotal(),
		obsCounters:    s.rec.CountersSnapshot(),
	}
	ext.resultHits, ext.resultMisses, ext.resultInvalidations = s.rcache.Counters()
	s.met.write(w, ext)
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
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

// httpError pairs a client-visible message with a status code.
type httpError struct {
	status int
	msg    string
}

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

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
	resp, release, e := s.runMatch(r.Context(), &req)
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
	writeJSON(w, http.StatusOK, s.runBatch(r.Context(), &req, true))
}

// runBatch fans the items of a batch across a bounded pool (parallel=true,
// the synchronous handler: each item still passes admission control
// individually, so a wide batch cannot starve single-match requests) or
// runs them sequentially (parallel=false, the job path: the job worker is
// the concurrency unit there).
func (s *Server) runBatch(ctx context.Context, req *BatchRequest, parallel bool) batchResult {
	results := make([]batchItem, len(req.Requests))
	runOne := func(i int) {
		item := batchItem{Index: i, Pattern: req.Requests[i].Pattern}
		resp, release, e := s.runMatch(ctx, &req.Requests[i])
		if e != nil {
			item.Status, item.Error = e.status, e.msg
		} else {
			defer release()
			item.Status, item.Match, item.Pattern = http.StatusOK, renderCompact(resp), resp.Pattern
		}
		results[i] = item
	}
	if !parallel {
		for i := range req.Requests {
			runOne(i)
		}
		return batchResult{Results: results}
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

// acquireCircuit resolves a request's circuit selection to a store handle.
// An empty name means the default circuit, whose absence keeps the legacy
// 409 ("upload one") contract; a named circuit that does not exist is 404.
func (s *Server) acquireCircuit(name string) (*store.Handle, *httpError) {
	if name == "" {
		name = DefaultCircuit
	}
	h, err := s.store.Acquire(name)
	if err == nil {
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

// resolvePattern turns a request's pattern selection into a private clone
// (the matcher marks globals on it, so cached templates are never handed
// out directly).  Inline patterns are compiled into the cache and — when a
// data directory is configured — persisted so they survive restarts.
func (s *Server) resolvePattern(req *MatchRequest) (*graph.Circuit, bool, *httpError) {
	switch {
	case req.Netlist != "":
		pat, err := s.cache.compileNetlist(req.Netlist, req.Subckt, true)
		if err != nil {
			return nil, false, errf(http.StatusBadRequest, "pattern netlist: %v", err)
		}
		if tpl, ok := s.cache.template(pat.Name); ok {
			if err := s.store.SavePattern(pat.Name, tpl); err != nil {
				s.log.Warn("persisting pattern failed", "pattern", pat.Name, "err", err)
			}
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

// runMatch executes one synchronous match request end to end: validation,
// pattern resolution, admission, circuit acquisition, and the matching run
// under the entry read lock.  A result's instances point into the circuit,
// which a PATCH may edit in place once no handle holds it, so runMatch
// returns the result with its handle still held: the caller renders the
// result and then calls release.
func (s *Server) runMatch(ctx context.Context, req *MatchRequest) (resp *matchResult, release func(), e *httpError) {
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

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Admission control: wait for a match slot, but not past the deadline.
	qRef := sc.Begin(obs.KindQueueWait, "match-slot")
	select {
	case s.sem <- struct{}{}:
		sc.End(qRef)
		defer func() { <-s.sem }()
	case <-ctx.Done():
		sc.End(qRef)
		obs.FromContext(ctx).SetCancelled()
		s.met.rejected.Add(1)
		return nil, nil, errf(http.StatusServiceUnavailable,
			"server saturated: no match slot within %v (%d concurrent)", timeout, s.cfg.MaxConcurrent)
	}
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	gRef := sc.Begin(obs.KindStoreGet, req.Circuit)
	h, e := s.acquireCircuit(req.Circuit)
	sc.End(gRef)
	if e != nil {
		return nil, nil, e
	}
	sc.Attr(gRef, "circuit", h.Name())
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
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		obs.FromContext(ctx).SetCancelled()
		s.met.timeouts.Add(1)
		return errf(http.StatusGatewayTimeout, "match exceeded its %v deadline", timeout)
	case errors.Is(err, context.Canceled):
		obs.FromContext(ctx).SetCancelled()
		return errf(http.StatusServiceUnavailable, "request cancelled")
	default:
		return errf(http.StatusBadRequest, "match: %v", err)
	}
}

// executeMatch runs the match itself against an acquired circuit handle:
// global pre-marking under the entry lock, matcher construction sharing
// the entry's CSR view and scratch pool, and result conversion.  Both the
// synchronous path and job runners land here.
func (s *Server) executeMatch(ctx context.Context, req *MatchRequest, pat *graph.Circuit, h *store.Handle) (*matchResult, error) {
	// Request-level globals are marked on the private pattern clone; the
	// shared circuit gets its marks during lock acquisition below, so the
	// match itself never writes to shared state.
	for _, name := range req.Globals {
		pat.MarkGlobal(name)
	}
	names := append([]string(nil), req.Globals...)
	for _, n := range pat.Globals() {
		names = append(names, n.Name)
	}

	opts := core.Options{
		Bind:         req.Bind,
		MaxInstances: req.Max,
		Cancel:       s.cancelHook(ctx),
		Scratch:      h.Scratch(),
		CSR:          h.CSR(),
		Observe:      obs.ScopeFromContext(ctx),
	}
	if req.NonOverlap {
		opts.Policy = core.NonOverlapping
	}
	workers := req.Workers
	if workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}

	h.RLockWithGlobals(names)
	m, err := core.NewMatcher(h.Circuit(), opts)
	var res *core.Result
	var inc *IncrementalJSON
	if err == nil {
		switch {
		case workers > 1:
			// The candidate-parallel engine manages its own worklists; it
			// neither captures nor replays.
			res, err = m.FindParallel(pat, workers)
		case s.incEnabled():
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
				s.rcache.Store(h.Name(), key, h.Version(), next)
				inc = &IncrementalJSON{
					Mode:       res.Report.IncrementalMode,
					Replayed:   res.Report.Replayed,
					Recomputed: res.Report.Recomputed,
				}
				if inc.Mode == "replay" {
					inc.BaseVersion = base
				}
			}
		default:
			res, err = m.Find(pat)
		}
	}
	h.RUnlock()
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

// parseCircuitBody reads and flattens a netlist request body, under a
// parse span and then a flatten span.
func (s *Server) parseCircuitBody(r *http.Request, name string) (*graph.Circuit, *httpError) {
	src, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, errf(http.StatusRequestEntityTooLarge, "netlist exceeds %d bytes", tooBig.Limit)
		}
		return nil, errf(http.StatusBadRequest, "reading body: %v", err)
	}
	sc := obs.ScopeFromContext(r.Context())
	ref := sc.Begin(obs.KindParse, name)
	sc.AttrInt(ref, "bytes", int64(len(src)))
	f, err := netlist.ParseString(string(src), name)
	sc.End(ref)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "parsing netlist: %v", err)
	}
	ref = sc.Begin(obs.KindFlatten, name)
	ckt, err := f.MainCircuit(name)
	sc.End(ref)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "building circuit: %v", err)
	}
	return ckt, nil
}

// putCircuit stores a parsed circuit under key, snapshotting it when a
// data directory is configured.
func (s *Server) putCircuit(ctx context.Context, key string, ckt *graph.Circuit) (store.Info, *httpError) {
	sc := obs.ScopeFromContext(ctx)
	ref := sc.Begin(obs.KindPersist, key)
	info, err := s.store.Put(key, ckt)
	sc.AttrInt(ref, "devices", int64(ckt.NumDevices()))
	sc.End(ref)
	if err != nil {
		if store.ValidName(key) {
			return store.Info{}, errf(http.StatusInternalServerError, "storing circuit %q: %v", key, err)
		}
		return store.Info{}, errf(http.StatusBadRequest, "%v", err)
	}
	// A replacement starts a fresh version lineage, so cached incremental
	// states cannot be carried forward (edits, by contrast, can — PATCH
	// never invalidates).
	if s.rcache != nil {
		s.rcache.Invalidate(key)
	}
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
	ckt, e := s.parseCircuitBody(r, display)
	if e != nil {
		writeError(w, e)
		return
	}
	info, e := s.putCircuit(r.Context(), key, ckt)
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
	if s.rcache != nil {
		s.rcache.Invalidate(name)
	}
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
	ckt, e := s.parseCircuitBody(r, display)
	if e != nil {
		writeError(w, e)
		return
	}
	info, e := s.putCircuit(r.Context(), DefaultCircuit, ckt)
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
	if s.rcache != nil {
		ext.resultHits, ext.resultMisses, ext.resultInvalidations = s.rcache.Counters()
	}
	s.met.write(w, ext)
}

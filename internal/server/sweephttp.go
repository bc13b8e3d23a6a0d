package server

// HTTP surface of the library-sweep engine: named pattern libraries
// (PUT/GET/DELETE /v1/libraries/{name}, GET /v1/libraries) persisted by
// the store alongside patterns, plus POST /v1/sweep and the "sweep" job
// kind, both of which run internal/sweep against a stored circuit through
// runSweep.

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sort"

	"subgemini/internal/netlist"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
	"subgemini/internal/stdcell"
	"subgemini/internal/store"
	"subgemini/internal/sweep"
)

// LibraryRequest is the body of PUT /v1/libraries/{name}.  "patterns"
// names built-in cells or previously uploaded patterns; "netlist" supplies
// additional patterns as .SUBCKT source, which are compiled into the
// pattern cache, persisted, and appended to the list (sorted by name).
type LibraryRequest struct {
	Patterns []string `json:"patterns,omitempty"`
	Netlist  string   `json:"netlist,omitempty"`
}

// LibraryInfo describes one stored library.
type LibraryInfo struct {
	Name     string   `json:"name"`
	Patterns []string `json:"patterns"`
}

// SweepRequest is the body of POST /v1/sweep and of the "sweep" job kind.
// Exactly one of "library" (a stored library name) and "patterns" (an
// inline list of pattern names) selects what to sweep.
type SweepRequest struct {
	Circuit          string   `json:"circuit,omitempty"`
	Library          string   `json:"library,omitempty"`
	Patterns         []string `json:"patterns,omitempty"`
	Globals          []string `json:"globals,omitempty"`
	Workers          int      `json:"workers,omitempty"`
	Max              int      `json:"max,omitempty"`
	IncludeInstances bool     `json:"include_instances,omitempty"`
	TimeoutMS        int      `json:"timeout_ms,omitempty"`

	// SinceVersion floors the incremental replay base, exactly as on a
	// match request (also settable via ?since_version=).
	SinceVersion uint64 `json:"since_version,omitempty"`
}

// SweepPatternJSON is one pattern's share of a sweep response.
type SweepPatternJSON struct {
	Pattern   string         `json:"pattern"`
	Alias     string         `json:"alias,omitempty"`
	Count     int            `json:"count"`
	Stats     StatsJSON      `json:"stats"`
	Instances []InstanceJSON `json:"instances,omitempty"`
}

// SweepResponse is the merged result of one sweep.  The server encodes its
// mirror, sweepResult (render.go).
type SweepResponse struct {
	Circuit        string             `json:"circuit"`
	Library        string             `json:"library,omitempty"`
	Patterns       int                `json:"patterns"`
	Runs           int                `json:"runs"`
	Deduped        int                `json:"deduped"`
	Count          int                `json:"count"`
	Results        []SweepPatternJSON `json:"results"`
	DurationMicros int64              `json:"duration_us"`

	// Version is the circuit's edit version; Replayed / Recomputed total
	// the Phase II candidate outcomes answered from the result cache vs
	// verified fresh across the sweep (zero on full sweeps).
	Version    uint64 `json:"version,omitempty"`
	Replayed   int    `json:"replayed,omitempty"`
	Recomputed int    `json:"recomputed,omitempty"`
}

func (s *Server) handleLibraryPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !store.ValidName(name) {
		writeError(w, errf(http.StatusBadRequest,
			"invalid library name %q (want 1-64 chars of [A-Za-z0-9._-], not starting with '.' or '-')", name))
		return
	}
	var req LibraryRequest
	if e := decodeBody(r, &req); e != nil {
		writeError(w, e)
		return
	}
	patterns := append([]string(nil), req.Patterns...)
	if req.Netlist != "" {
		f, err := netlist.ParseString(req.Netlist, "library")
		if err != nil {
			writeError(w, errf(http.StatusBadRequest, "library netlist: %v", err))
			return
		}
		if len(f.Subckts) == 0 {
			writeError(w, errf(http.StatusBadRequest, "library netlist defines no .SUBCKT"))
			return
		}
		tpls, err := f.Patterns()
		if err != nil {
			writeError(w, errf(http.StatusBadRequest, "library netlist: %v", err))
			return
		}
		for _, tpl := range tpls {
			s.cache.put(tpl.Name, tpl, false)
			if err := s.store.SavePattern(tpl.Name, tpl); err != nil {
				s.log.Warn("persisting pattern failed", "pattern", tpl.Name, "err", err)
			}
			patterns = append(patterns, tpl.Name)
		}
	}
	if len(patterns) == 0 {
		writeError(w, errf(http.StatusBadRequest, `library needs "patterns" names or a "netlist" with .SUBCKT definitions`))
		return
	}
	for _, p := range patterns {
		if !s.patternKnown(p) {
			writeError(w, errf(http.StatusBadRequest,
				"library references unknown pattern %q (built-in cells and uploaded patterns; see /v1/cells)", p))
			return
		}
	}
	if err := s.store.SaveLibrary(name, patterns); err != nil {
		writeError(w, errf(http.StatusInternalServerError, "saving library %q: %v", name, err))
		return
	}
	writeJSON(w, http.StatusOK, LibraryInfo{Name: name, Patterns: patterns})
}

// patternKnown reports whether a pattern name resolves without compiling
// anything: cache entry, built-in cell, or store-persisted template.
func (s *Server) patternKnown(name string) bool {
	if _, ok := s.cache.template(name); ok {
		return true
	}
	if stdcell.Get(name) != nil {
		return true
	}
	_, ok := s.store.Patterns()[name]
	return ok
}

func (s *Server) handleLibraryGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	pats, ok := s.store.Library(name)
	if !ok {
		writeError(w, errf(http.StatusNotFound, "no library named %q; see GET /v1/libraries", name))
		return
	}
	writeJSON(w, http.StatusOK, LibraryInfo{Name: name, Patterns: pats})
}

func (s *Server) handleLibraryDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.store.DeleteLibrary(name); err != nil {
		if errors.Is(err, store.ErrNotFound) {
			writeError(w, errf(http.StatusNotFound, "no library named %q", name))
			return
		}
		writeError(w, errf(http.StatusInternalServerError, "deleting library %q: %v", name, err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func (s *Server) handleLibraryList(w http.ResponseWriter, r *http.Request) {
	libs := s.store.Libraries()
	out := make([]LibraryInfo, 0, len(libs))
	for name, pats := range libs {
		out = append(out, LibraryInfo{Name: name, Patterns: pats})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.shedBulk(w, r, "sweep") {
		return
	}
	var req SweepRequest
	if e := decodeBody(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if req.SinceVersion == 0 {
		req.SinceVersion = sinceVersion(r)
	}
	resp, e := s.runSweep(r.Context(), &req, false)
	if e != nil {
		writeError(w, e)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func validateSweep(req *SweepRequest) *httpError {
	if (req.Library == "") == (len(req.Patterns) == 0) {
		return errf(http.StatusBadRequest, `sweep needs exactly one of "library" (a stored library name) or "patterns" (pattern names)`)
	}
	return nil
}

// resolveSweepLibrary turns the request's selection into named pattern
// templates, ready to hand to sweep.Run.
func (s *Server) resolveSweepLibrary(req *SweepRequest) ([]sweep.Pattern, *httpError) {
	names := req.Patterns
	if req.Library != "" {
		stored, ok := s.store.Library(req.Library)
		if !ok {
			return nil, errf(http.StatusNotFound, "no library named %q; see GET /v1/libraries", req.Library)
		}
		names = stored
	}
	lib := make([]sweep.Pattern, 0, len(names))
	for _, name := range names {
		pat, _, err := s.cache.resolve(name, true)
		if err != nil {
			return nil, errf(http.StatusNotFound, "%v", err)
		}
		lib = append(lib, sweep.Pattern{Name: name, Template: pat})
	}
	return lib, nil
}

// runSweep executes one sweep end to end, for POST /v1/sweep (job false)
// and for sweep jobs alike, as runMatch does a match: validation, library
// resolution under a cache-lookup span, the lane's envelope (a synchronous
// sweep takes one match slot; its internal parallelism is bounded
// separately by "workers"), circuit acquisition, and the sweep.  A job
// resolves its library when it runs, so a job against a stored library
// sweeps its definition as of execution.
func (s *Server) runSweep(ctx context.Context, req *SweepRequest, job bool) (*sweepResult, *httpError) {
	if e := validateSweep(req); e != nil {
		return nil, e
	}
	sc := obs.ScopeFromContext(ctx)
	ref := sc.Begin(obs.KindCacheLookup, "sweep-library")
	lib, e := s.resolveSweepLibrary(req)
	sc.AttrInt(ref, "patterns", int64(len(lib)))
	sc.End(ref)
	if e != nil {
		return nil, e
	}

	ctx, timeout, done, e := s.envelope(ctx, req.TimeoutMS, job)
	if e != nil {
		return nil, e
	}
	defer done()
	h, e := s.acquireCircuit(ctx, req.Circuit)
	if e != nil {
		return nil, e
	}
	defer h.Release()
	resp, err := s.executeSweep(ctx, req, lib, h)
	if err != nil {
		return nil, s.matchError(ctx, err, timeout)
	}
	return resp, nil
}

// executeSweep runs the sweep against an acquired circuit handle, sharing
// the entry's CSR view and scratch pool, with every per-pattern run
// consulting the result cache.  The request's globals apply to this sweep
// only.
func (s *Server) executeSweep(ctx context.Context, req *SweepRequest, lib []sweep.Pattern, h *store.Handle) (*sweepResult, error) {
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	sopts := sweep.Options{
		Globals:      req.Globals,
		Workers:      min(req.Workers, runtime.GOMAXPROCS(0)),
		MaxInstances: req.Max,
		Cancel:       s.cancelHook(ctx),
		CSR:          h.CSR(),
		Observe:      obs.ScopeFromContext(ctx),
		Incremental:  &sweepIncHook{s: s, h: h, minBase: req.SinceVersion},
	}
	rep, err := sweep.Run(h.Circuit(), lib, sopts)
	if err != nil {
		return nil, err
	}
	s.met.observeSweep(rep)

	resp := &sweepResult{
		Circuit:        h.Name(),
		Library:        req.Library,
		Patterns:       len(rep.Results),
		Runs:           rep.Runs,
		Deduped:        rep.Deduped,
		Count:          rep.Instances(),
		Results:        make([]sweepPatternResult, 0, len(rep.Results)),
		DurationMicros: rep.Duration.Microseconds(),
		Version:        h.Version(),
		Replayed:       rep.Replayed,
		Recomputed:     rep.Recomputed,
	}
	for i := range rep.Results {
		pr := &rep.Results[i]
		jp := sweepPatternResult{
			Pattern: pr.Name,
			Alias:   pr.Alias,
			Count:   len(pr.Instances),
			Stats:   statsJSON(&pr.Report),
		}
		if req.IncludeInstances && len(pr.Instances) > 0 {
			// Rendered here, under the handle: the result outlives it.
			jp.Instances = appendInstances(nil, pr.Instances, "")
		}
		resp.Results = append(resp.Results, jp)
	}
	return resp, nil
}

// statsJSON converts a matcher report to its wire form.
func statsJSON(r *stats.Report) StatsJSON {
	return StatsJSON{
		Instances:      r.Instances,
		MatchedDevices: r.MatchedDevices,
		CVSize:         r.CVSize,
		KeyVertex:      r.KeyVertex,
		Candidates:     r.Candidates,
		Phase1Passes:   r.Phase1Passes,
		Phase2Passes:   r.Phase2Passes,
		Guesses:        r.Guesses,
		Backtracks:     r.Backtracks,
		Phase1Micros:   r.Phase1Duration.Microseconds(),
		Phase2Micros:   r.Phase2Duration.Microseconds(),
		RegionRadius:   r.RegionRadius,
		RegionMaxSize:  r.RegionMaxSize,
		RegionVertices: r.RegionBallSum,

		IncrementalMode: r.IncrementalMode,
		Replayed:        r.Replayed,
		Recomputed:      r.Recomputed,
	}
}

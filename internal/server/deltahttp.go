package server

// HTTP surface of the incremental mutation engine: PATCH /v1/circuits/{name}
// applies a batch of edit ops through store.ApplyEdits (snapshot isolation:
// in-flight matches keep the pre-edit circuit through their handles; with
// none in flight the edit rewrites the circuit in place), GET
// /v1/circuits/{name}/versions exposes the edit history, and the match and
// sweep paths consult a shared delta.ResultCache so a query against a
// slowly-changing circuit replays candidate outcomes from the last complete
// run instead of re-verifying the whole graph (core.FindIncremental).
//
// Cache policy: entries are keyed by (circuit name, pattern structure) and
// record the circuit version they describe.  A PATCH never invalidates —
// the retained delta.Steps are exactly what lets a stale entry be carried
// forward — while PUT and DELETE drop every entry of the circuit, since a
// replacement starts a new version lineage the steps cannot bridge.

import (
	"errors"
	"net/http"
	"strconv"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/graph"
	"subgemini/internal/obs"
	"subgemini/internal/store"
)

// PatchRequest is the body of PATCH /v1/circuits/{name}: one atomic batch
// of edit ops.  The whole batch applies or none of it does.
type PatchRequest struct {
	Ops []delta.Op `json:"ops"`
}

// PatchResponse reports the edit outcome: the circuit's new shape and
// version.
type PatchResponse struct {
	Circuit CircuitInfo `json:"circuit"`
	Applied int         `json:"applied"`
}

func (s *Server) handleCircuitPatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req PatchRequest
	if e := decodeBody(r, &req); e != nil {
		writeError(w, e)
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, errf(http.StatusBadRequest, `patch has no "ops"`))
		return
	}
	sc := obs.ScopeFromContext(r.Context())
	ref := sc.Begin(obs.KindPersist, name)
	sc.AttrInt(ref, "ops", int64(len(req.Ops)))
	info, err := s.store.ApplyEdits(name, req.Ops)
	sc.End(ref)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			writeError(w, errf(http.StatusNotFound, "no circuit named %q; see GET /v1/circuits", name))
		default:
			// Validation errors (unknown device, global rename, ...) are the
			// client's problem; nothing was modified.
			writeError(w, errf(http.StatusBadRequest, "%v", err))
		}
		return
	}
	writeJSON(w, http.StatusOK, PatchResponse{Circuit: infoJSON(info), Applied: len(req.Ops)})
}

func (s *Server) handleCircuitVersions(w http.ResponseWriter, r *http.Request) {
	vl, err := s.store.Versions(r.PathValue("name"))
	if err != nil {
		writeError(w, errf(http.StatusNotFound, "no circuit named %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, vl)
}

// IncrementalJSON reports how a run used the result cache: mode is "full"
// (no usable capture; the run still captured for next time), "replay"
// (candidates outside the blast radius were replayed), or "legacy" (options
// incompatible with capture).  BaseVersion is the capture the run replayed
// from (0 when none).
type IncrementalJSON struct {
	Mode        string `json:"mode"`
	BaseVersion uint64 `json:"base_version,omitempty"`
	Replayed    int    `json:"replayed"`
	Recomputed  int    `json:"recomputed"`
}

// sinceVersion parses the ?since_version= query parameter (0 when absent
// or unparsable — the hint is best-effort, never an error).
func sinceVersion(r *http.Request) uint64 {
	v, _ := strconv.ParseUint(r.URL.Query().Get("since_version"), 10, 64)
	return v
}

// incEnabled reports whether the incremental path is on for this daemon.
func (s *Server) incEnabled() bool { return s.rcache != nil }

// incLookup resolves a cache entry into (previous state, dirty set) for a
// run against the circuit version the handle leases.  minBase, when > 0,
// refuses captures older than that version (the request's since_version
// floor).  Any gap — cold cache, steps aged out, a concurrent PATCH racing
// the handle — degrades to (nil, nil): a full run that re-captures.
func (s *Server) incLookup(h *store.Handle, key string, minBase uint64) (*core.IncrementalState, *core.DirtySet, uint64) {
	ver, prev, ok := s.rcache.Lookup(h.Name(), key)
	if !ok || (minBase > 0 && ver < minBase) {
		return nil, nil, 0
	}
	steps, cur, ok := s.store.StepsSince(h.Name(), ver)
	if !ok || cur != h.Version() {
		return nil, nil, 0
	}
	if len(steps) == 0 {
		// Same version: nothing dirty, every outcome replays.
		return prev, identityDirtySet(h.CSR()), ver
	}
	ds, err := delta.Compose(steps)
	if err != nil {
		return nil, nil, 0
	}
	return prev, ds, ver
}

// identityDirtySet is the dirty set of "no edits at all": identity remaps,
// nothing dirty, nothing touched.
func identityDirtySet(view *core.CSR) *core.DirtySet {
	idDev := make([]int32, view.NumDevs)
	for i := range idDev {
		idDev[i] = int32(i)
	}
	idNet := make([]int32, view.NumNets)
	for i := range idNet {
		idNet[i] = int32(i)
	}
	return &core.DirtySet{DevOld2New: idDev, NetOld2New: idNet}
}

// sweepIncHook adapts the daemon's result cache to sweep.Incremental for
// one sweep invocation: the circuit name and version are pinned to the
// acquired handle, so every per-pattern lookup and store is consistent
// even while PATCHes land concurrently.
type sweepIncHook struct {
	s       *Server
	h       *store.Handle
	minBase uint64
}

func (hk *sweepIncHook) Lookup(pat *graph.Circuit, opts core.Options) (*core.IncrementalState, *core.DirtySet, bool) {
	prev, ds, _ := hk.s.incLookup(hk.h, delta.PatternKey(pat, opts), hk.minBase)
	return prev, ds, prev != nil
}

func (hk *sweepIncHook) Store(pat *graph.Circuit, opts core.Options, st *core.IncrementalState) {
	hk.s.rcache.Store(hk.h.Name(), delta.PatternKey(pat, opts), hk.h.Version(), st)
}

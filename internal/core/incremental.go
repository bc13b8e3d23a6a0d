package core

import (
	"slices"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
)

// This file implements incremental re-matching after circuit edits: given
// the capture of a previous run and the dirty set of the edits applied
// since, FindIncremental runs the full Phase I, then re-verifies only the
// Phase II candidates whose radius-r balls can intersect the dirty set,
// replaying every other candidate's outcome (including its unique-label
// draw count) from the capture.  Phase I carries no incremental state: it
// is one linear relabeling sweep, and running it in full yields exactly the
// key vertex and candidate vector of a fresh run.  Results are
// bit-identical to rebuilding and running the full matcher —
// TestIncrementalDifferential asserts instance-and-order equality, and the
// same Phase I outcome, against Find on a fresh matcher.
//
// Why Phase II replay is sound.  Phase II reads nothing from Phase I but
// the key vertex and the candidate order; each candidate's search depends
// only on its ball, the pattern and the unique-label stream.  A candidate c
// whose radius-r ball (the region engine's extraction, r = pattern
// eccentricity from the key) holds no dirty vertex sees a bit-identical
// ball: edits preserve the relative order of surviving pins and
// connections (graph.RemoveDevice and friends splice rather than rebuild),
// the index remap is monotone, and any changed or removed vertex on an old
// ball path would have left a surviving dirty vertex within distance r of
// c.  Identical balls drive identical relabel/partition/guess sequences, so
// the candidate draws the same number of unique labels and produces the
// same instance (remapped).  Replay skips the draws
// (label.UniqueSource.Skip) and rebuilds the instance from the captured
// image indices; candidates inside the dirty ball, and candidates new to
// the candidate vector, are re-verified for real, reading the same
// unique-label stream state a fresh run would.

// DirtySet describes the cumulative effect of the edits between two circuit
// versions, in terms the incremental matcher consumes.  internal/delta
// builds one per edit step and composes consecutive steps.
type DirtySet struct {
	// DevOld2New / NetOld2New map old vertex indices to new ones, -1 for
	// removed vertices.  Edits are monotone: adds append, removes compact
	// preserving order, so survivors never reorder.
	DevOld2New []int32
	NetOld2New []int32

	// DirtyDevs / DirtyNets list the new-space indices of every vertex
	// whose adjacency (or initial label) may differ from the old circuit:
	// added vertices, endpoints of added/removed/rewired edges, and nets
	// whose degree changed.
	DirtyDevs []int32
	DirtyNets []int32

	// Touched lists net names whose *identity* changed (added, removed, or
	// renamed nets).  Mere adjacency changes are not identity changes.  The
	// matcher falls back to a full run when a touched name is a pattern
	// global or a bind target, since those are matched by name.
	Touched []string
}

// candOutcome is the captured Phase II outcome of one candidate: how many
// unique labels its verification drew and, when it produced an instance,
// the image vertex indices per pattern device and net (pattern order).
type candOutcome struct {
	draws  uint64
	devIdx []int32 // nil when the candidate produced no instance
	netIdx []int32
}

// IncrementalState is the capture of one matching run against one circuit
// version, keyed externally by (circuit, version, pattern): the vertex
// counts and the global set it was taken at, the key vertex, and every
// candidate's Phase II outcome.  It holds no per-vertex state.  It is
// immutable after FindIncremental returns it and safe to share.
type IncrementalState struct {
	numDevs, numNets int
	// globals names each pattern net in the run's global set, by pattern
	// net index ("" for the others).  Phase I always runs in full, so
	// Phase II sees the set only through these nets and their same-named
	// pre-matched images.
	globals  []string
	keyVID   label.VID // -1 when the run had no key (empty CV)
	outcomes map[int32]*candOutcome
}

// FindIncremental locates instances of pattern s like Find, reusing the
// previous capture prev and the dirty set ds when both are usable.  It
// returns the result plus a fresh capture for the next edit; the capture is
// nil when the run was cancelled or when options incompatible with capture
// were set (a trace or TraceTable, NonOverlapping).
// prev/ds may be nil (first run against a circuit version): the run is then
// a full match that additionally captures.
func (m *Matcher) FindIncremental(s *graph.Circuit, prev *IncrementalState, ds *DirtySet) (*Result, *IncrementalState, error) {
	o := &m.opts
	if o.Policy == NonOverlapping || o.Observe.Detail() || o.TraceTable != nil {
		// Capture-incompatible runs: NonOverlapping carries consumed state
		// across runs, and a trace wants every candidate verified.
		res, err := m.Find(s)
		if res != nil {
			res.Report.IncrementalMode = "legacy"
		}
		return res, nil, err
	}
	pat, err := m.prepare(s)
	if err != nil {
		return nil, nil, err
	}
	nd, nn := m.g.NumDevices(), m.g.NumNets()
	st := &IncrementalState{numDevs: nd, numNets: nn, keyVID: -1,
		globals: make([]string, len(pat.s.Nets))}
	for i, n := range pat.s.Nets {
		if pat.global[i] {
			st.globals[i] = n.Name
		}
	}
	res := &Result{}
	var rc *replayCtx
	if m.replayCompatible(pat, prev, ds, st.globals) {
		rc = newReplayCtx(prev, ds, nd, nn)
		res.Report.IncrementalMode = "replay"
		res.Report.DirtyVertices = len(ds.DirtyDevs) + len(ds.DirtyNets)
	} else {
		res.Report.IncrementalMode = "full"
	}
	if err := m.match(pat, res, rc, st); err != nil {
		return res, nil, err
	}
	return res, st, nil
}

// replayCompatible decides whether prev/ds support the replay path; any
// mismatch falls back to a full run with capture.  globals is this run's
// global set as IncrementalState records it.
func (m *Matcher) replayCompatible(pat *pattern, prev *IncrementalState, ds *DirtySet, globals []string) bool {
	if prev == nil || ds == nil || prev.keyVID < 0 {
		return false
	}
	if prev.numDevs != len(ds.DevOld2New) || prev.numNets != len(ds.NetOld2New) {
		return false
	}
	// A pattern net that joined or left the global set, or a global that
	// names another image, changes the pre-matched seeds of every ball.
	if !slices.Equal(globals, prev.globals) {
		return false
	}
	if len(ds.Touched) > 0 || len(pat.bind) > 0 {
		touched := make(map[string]bool, len(ds.Touched))
		for _, name := range ds.Touched {
			touched[name] = true
		}
		// Pattern globals and bind targets are matched by name; an identity
		// change of such a name invalidates name-derived labels.
		for _, name := range globals {
			if name != "" && touched[name] {
				return false
			}
		}
		if len(pat.bind) > 0 {
			dirtyNet := make(map[int32]bool, len(ds.DirtyNets))
			for _, v := range ds.DirtyNets {
				dirtyNet[v] = true
			}
			for _, target := range pat.bind {
				if touched[target] {
					return false
				}
				// A dirty bind target changed degree or adjacency; the
				// bind degree checks and its role as a fixed barrier of
				// every Phase II ball depend on both.
				if gn := m.g.NetByName(target); gn != nil && dirtyNet[int32(gn.Index)] {
					return false
				}
			}
		}
	}
	return true
}

// replayCtx carries the Phase II replay inputs into the shared candidate
// loop.
type replayCtx struct {
	prev     *IncrementalState
	ds       *DirtySet
	nd       int     // device count of the current circuit
	identity bool    // both remaps are identity: nothing removed, adds append
	devOldOf []int32 // new device index -> old, -1 when added (nil when identity)
	netOldOf []int32 // new net index -> old, -1 when added (nil when identity)
	dirty    []bool  // the Phase II dirty ball (see arm)
}

func isIdentityRemap(m []int32) bool {
	for i, v := range m {
		if v != int32(i) {
			return false
		}
	}
	return true
}

// newReplayCtx builds the inverse index maps of a dirty set.  The common
// edit shapes (rewires, pure adds) leave both remaps identity; the inverse
// maps are skipped entirely then.
func newReplayCtx(prev *IncrementalState, ds *DirtySet, nd, nn int) *replayCtx {
	rc := &replayCtx{prev: prev, ds: ds, nd: nd}
	if isIdentityRemap(ds.DevOld2New) && isIdentityRemap(ds.NetOld2New) {
		rc.identity = true
		return rc
	}
	rc.devOldOf = make([]int32, nd)
	rc.netOldOf = make([]int32, nn)
	for i := range rc.devOldOf {
		rc.devOldOf[i] = -1
	}
	for i := range rc.netOldOf {
		rc.netOldOf[i] = -1
	}
	for ov, nv := range ds.DevOld2New {
		if nv >= 0 {
			rc.devOldOf[nv] = int32(ov)
		}
	}
	for ov, nv := range ds.NetOld2New {
		if nv >= 0 {
			rc.netOldOf[nv] = int32(ov)
		}
	}
	return rc
}

// arm prepares the replay for a Phase II run with key vertex key and
// reports whether the capture applies at all.  Pattern VIDs are
// index-derived, so a structurally identical pattern yields the same key
// VID; a different key changes every candidate's search even far from the
// edits, and nothing replays.  Otherwise it marks the dirty ball:
// candidates within the pattern radius of a dirty vertex must be
// re-verified, everything else replays.
func (rc *replayCtx) arm(p2 *p2region, key label.VID) bool {
	if rc.prev.keyVID != key {
		return false
	}
	rc.dirty = phase2DirtyBall(p2.g, p2.fixedGvid, rc.ds, rc.nd, p2.radius)
	return true
}

// outcome returns candidate c's captured outcome in the new vertex space,
// or nil when c must be verified afresh: its ball may hold a dirty vertex,
// it is new to the candidate vector, or one of its images was removed.
// With identity remaps the capture is shared as-is (outcomes are
// immutable).
func (rc *replayCtx) outcome(c label.VID) *candOutcome {
	if rc.dirty[c] {
		return nil
	}
	ov := rc.oldVID(c)
	if ov < 0 {
		return nil
	}
	prev := rc.prev.outcomes[ov]
	if prev == nil || rc.identity {
		return prev
	}
	return remapOutcome(prev, rc.ds)
}

// oldVID translates a new-space vid into the previous capture's vid space,
// or -1 for an added vertex.
func (rc *replayCtx) oldVID(c label.VID) int32 {
	nd := rc.nd
	if rc.identity {
		if int(c) < nd {
			if int(c) < rc.prev.numDevs {
				return int32(c)
			}
			return -1 // appended device
		}
		ni := int(c) - nd
		if ni >= rc.prev.numNets {
			return -1 // appended net
		}
		return int32(rc.prev.numDevs + ni)
	}
	if int(c) < nd {
		return rc.devOldOf[c]
	}
	ov := rc.netOldOf[int(c)-nd]
	if ov < 0 {
		return -1
	}
	return int32(rc.prev.numDevs) + ov
}

// phase2DirtyBall marks every vertex within radius hops of a dirty vertex,
// through paths that avoid the fixed (global/bound) vertices — the same
// traversal rule as the region engine's ball extraction, so a candidate
// outside the ball extracts a region that cannot contain a dirty vertex.
func phase2DirtyBall(g *csr.Graph, fixed []int32, ds *DirtySet, nd, radius int) []bool {
	inA := make([]bool, g.Size())
	isFixed := make([]bool, g.Size())
	for _, gv := range fixed {
		isFixed[gv] = true
	}
	depth := make([]int32, g.Size())
	queue := make([]int32, 0, len(ds.DirtyDevs)+len(ds.DirtyNets))
	seed := func(v int32) {
		if !inA[v] && !isFixed[v] {
			inA[v] = true
			depth[v] = 0
			queue = append(queue, v)
		}
	}
	for _, v := range ds.DirtyDevs {
		seed(v)
	}
	for _, v := range ds.DirtyNets {
		seed(v + int32(nd))
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if int(depth[v]) >= radius {
			continue
		}
		for e := g.Start[v]; e < g.Start[v+1]; e++ {
			nv := g.Adj[e]
			if inA[nv] || isFixed[nv] {
				continue
			}
			inA[nv] = true
			depth[nv] = depth[v] + 1
			queue = append(queue, nv)
		}
	}
	return inA
}

// outcomeFromInstance captures a freshly verified candidate's outcome.
func (m *Matcher) outcomeFromInstance(pat *pattern, inst *Instance, draws uint64) *candOutcome {
	oc := &candOutcome{draws: draws}
	if inst == nil {
		return oc
	}
	oc.devIdx = make([]int32, len(pat.s.Devices))
	oc.netIdx = make([]int32, len(pat.s.Nets))
	for i, d := range pat.s.Devices {
		oc.devIdx[i] = int32(inst.DevMap[d].Index)
	}
	for i, n := range pat.s.Nets {
		oc.netIdx[i] = int32(inst.NetMap[n].Index)
	}
	return oc
}

// remapOutcome translates a captured outcome into the new vertex space, or
// returns nil when any image vertex was removed (the candidate must then be
// re-verified; with a clean ball this cannot happen, but the guard keeps a
// stale capture from resurrecting deleted vertices).
func remapOutcome(prev *candOutcome, ds *DirtySet) *candOutcome {
	if prev.devIdx == nil {
		return &candOutcome{draws: prev.draws}
	}
	oc := &candOutcome{
		draws:  prev.draws,
		devIdx: make([]int32, len(prev.devIdx)),
		netIdx: make([]int32, len(prev.netIdx)),
	}
	for i, ov := range prev.devIdx {
		nv := ds.DevOld2New[ov]
		if nv < 0 {
			return nil
		}
		oc.devIdx[i] = nv
	}
	for i, ov := range prev.netIdx {
		nv := ds.NetOld2New[ov]
		if nv < 0 {
			return nil
		}
		oc.netIdx[i] = nv
	}
	return oc
}

// instanceFromOutcome rebuilds the Instance a replayed candidate produced,
// against the current circuit.
func (m *Matcher) instanceFromOutcome(pat *pattern, oc *candOutcome) *Instance {
	if oc.devIdx == nil {
		return nil
	}
	inst := &Instance{
		DevMap: make(map[*graph.Device]*graph.Device, len(oc.devIdx)),
		NetMap: make(map[*graph.Net]*graph.Net, len(oc.netIdx)),
	}
	for i, d := range pat.s.Devices {
		inst.DevMap[d] = m.g.Devices[oc.devIdx[i]]
	}
	for i, n := range pat.s.Nets {
		inst.NetMap[n] = m.g.Nets[oc.netIdx[i]]
	}
	return inst
}

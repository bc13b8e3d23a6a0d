package core

import (
	"fmt"
	"sort"
	"time"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/obs"
)

// This file implements incremental re-matching after circuit edits: given
// the captured state of a previous complete run and the dirty set of the
// edits applied since, FindIncremental re-runs Phase I labeling only over a
// bounded region around the dirty vertices and re-verifies only the Phase II
// candidates whose radius-r balls can intersect the dirty region, replaying
// every other candidate's outcome (including its unique-label draw count)
// from the capture.  Results are bit-identical to rebuilding and running the
// full matcher — TestIncrementalDifferential asserts instance-and-order
// equality against Find on a fresh matcher.
//
// Why a bounded Phase I region suffices.  One relabeling pass propagates
// label information exactly one hop (a vertex's new label reads only its
// neighbors' labels), and global/bound vertices are barriers: their labels
// are name-derived and never relabeled, so no influence crosses them.  A
// complete previous run executed a pattern-determined sequence of E =
// prev.relabels passes — the sequence is determined by the pattern alone
// (main-graph data only ever *aborts* a run via consistency verdicts, and
// the previous run did not abort) — so a fresh full run on the edited
// circuit either executes the same E-pass sequence or aborts having proven
// zero instances.  By induction on passes, any vertex farther than E hops
// from every dirty vertex (through non-global paths) has the same label and
// prune-state trajectory as in the previous run.  The replay therefore:
//
//  1. seeds fresh initial labels inside the region ball(dirty, 2E+2) and
//     the previous run's *final* labels/states outside it;
//  2. re-runs the full pattern-driven pass sequence with main-graph work
//     restricted to the region worklists and consistency verdicts ignored
//     (a fresh-run verdict abort proves zero instances, which the exact
//     Phase II below reproduces by finding none);
//  3. observes that out-of-region staleness (final labels standing in for
//     stage-t labels) contaminates at most one hop inward per pass, so
//     after E passes the wrong values are confined to depths > E+2 while
//     the core (depth <= E+1) is exactly fresh;
//  4. restores vertices at depth >= E+2 to the previous finals — valid
//     because depth > E already implies fresh-final == previous-final —
//     leaving gLab/gState equal to the fresh run's completed-sequence
//     finals everywhere, from which the candidate vector is chosen.
//
// Why Phase II replay is sound.  A candidate c whose radius-r ball (the
// region engine's extraction, r = pattern eccentricity from the key) holds
// no dirty vertex sees a bit-identical ball: edits preserve the relative
// order of surviving pins and connections (graph.RemoveDevice and friends
// splice rather than rebuild), the index remap is monotone, and any changed
// or removed vertex on an old ball path would have left a surviving dirty
// vertex within distance r of c.  Identical balls drive identical
// relabel/partition/guess sequences, so the candidate draws the same number
// of unique labels and produces the same instance (remapped).  Replay skips
// the draws (label.UniqueSource.Skip) and rebuilds the instance from the
// captured image indices; candidates inside the dirty ball are re-verified
// for real, reading the same unique-label stream state a fresh run would.

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

// IncrementalState is the capture of one complete matching run against one
// circuit version, keyed externally by (circuit, version, pattern).  It is
// immutable after FindIncremental returns it and safe to share.
type IncrementalState struct {
	numDevs, numNets int
	globals          int // global net count at capture time (marks are monotone)
	complete         bool
	relabels         int // Phase I relabeling passes of the captured sequence
	gLab             []label.Value
	gState           []g1State
	keyVID           label.VID // -1 when the run had no key (empty CV)
	outcomes         map[int32]*candOutcome
}

// incReplayCap caps how large the Phase I replay region may grow relative
// to the whole graph before region bookkeeping stops paying for itself and
// the replay runs full Phase I instead (Phase II replay still applies).
// Variable so tests can force either path.
var incReplayCap = 0.5

// FindIncremental locates instances of pattern s like Find, reusing the
// previous capture prev and the dirty set ds when both are usable.  It
// returns the result plus a fresh capture for the next edit; the capture is
// nil when the run was cancelled or when options incompatible with capture
// were set (tracing, NonOverlapping).
// prev/ds may be nil (first run against a circuit version): the run is then
// a full match that additionally captures.
func (m *Matcher) FindIncremental(s *graph.Circuit, prev *IncrementalState, ds *DirtySet) (*Result, *IncrementalState, error) {
	o := &m.opts
	if o.Policy == NonOverlapping || o.Tracer != nil || o.TraceTable != nil {
		// Capture-incompatible runs: NonOverlapping carries consumed state
		// across runs, and tracing sinks expect the plain event stream.
		res, err := m.Find(s)
		if res != nil {
			res.Report.IncrementalMode = "legacy"
		}
		return res, nil, err
	}
	if s == nil {
		return nil, nil, fmt.Errorf("core: nil pattern")
	}
	// Same mutual global-marking preamble as Find, before compatibility is
	// judged: the global count below must reflect this run's marks.
	for _, n := range s.Globals() {
		m.markGlobal(n.Name)
	}
	for _, n := range m.g.Globals() {
		s.MarkGlobal(n.Name)
	}
	pat, err := newPattern(s, o)
	if err != nil {
		return nil, nil, err
	}
	if m.replayCompatible(pat, prev, ds) {
		return m.findReplay(pat, prev, ds)
	}
	return m.findCapture(pat)
}

// replayCompatible decides whether prev/ds support the replay path; any
// mismatch falls back to a full run with capture.
func (m *Matcher) replayCompatible(pat *pattern, prev *IncrementalState, ds *DirtySet) bool {
	if prev == nil || ds == nil || !prev.complete || prev.relabels <= 0 {
		return false
	}
	if prev.numDevs != len(ds.DevOld2New) || prev.numNets != len(ds.NetOld2New) {
		return false
	}
	if len(prev.gLab) != prev.numDevs+prev.numNets {
		return false
	}
	// Global marks are monotone and globals cannot be removed or renamed
	// (delta refuses both), so an equal count means the identical set; a
	// changed count means labels shifted in ways the capture cannot cover.
	globals := 0
	for _, n := range m.g.Nets {
		if n.Global {
			globals++
		}
	}
	if globals != prev.globals {
		return false
	}
	if len(ds.Touched) > 0 || len(pat.bind) > 0 {
		touched := make(map[string]bool, len(ds.Touched))
		for _, name := range ds.Touched {
			touched[name] = true
		}
		// Pattern globals and bind targets are matched by name; an identity
		// change of such a name invalidates name-derived labels.
		for _, n := range pat.s.Nets {
			if n.Global && touched[n.Name] {
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
				// bind degree checks and its Phase I barrier role depend
				// on both.
				if gn := m.g.NetByName(target); gn != nil && dirtyNet[int32(gn.Index)] {
					return false
				}
			}
		}
	}
	return true
}

// findCapture runs the full matcher like Find while recording the capture a
// later replay needs: the Phase I pass count and final labels/states, and
// per-candidate Phase II draw counts and instance images.  pat is already
// built and globals are already marked.
func (m *Matcher) findCapture(pat *pattern) (*Result, *IncrementalState, error) {
	res := &Result{}
	res.Report.IncrementalMode = "full"

	t0 := time.Now()
	p1Ref := obs.NoSpan
	if o := m.opts.Observe; o != nil {
		p1Ref = o.Begin(obs.KindPhase1, pat.s.Name)
	}
	p1 := newPhase1(m, pat, &res.Report)
	key, cv, err := p1.run()
	res.Report.Phase1Duration = time.Since(t0)
	if o := m.opts.Observe; o != nil {
		o.Attr(p1Ref, "mode", "full")
		o.AttrInt(p1Ref, "passes", int64(res.Report.Phase1Passes))
		o.AttrInt(p1Ref, "cv_size", int64(len(cv)))
		o.End(p1Ref)
	}
	if err != nil {
		res.Report.CancelledAt = "phase1"
		return res, nil, err
	}
	res.Report.CVSize = len(cv)
	return m.finishIncremental(pat, p1, key, cv, res, nil)
}

// replayCtx carries the Phase II replay inputs from findReplay into the
// shared candidate loop.
type replayCtx struct {
	prev     *IncrementalState
	ds       *DirtySet
	identity bool    // both remaps are identity: nothing removed, adds append
	devOldOf []int32 // new device index -> old, -1 when added (nil when identity)
	netOldOf []int32 // new net index -> old, -1 when added (nil when identity)
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
	rc := &replayCtx{prev: prev, ds: ds}
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

// oldVID translates a new-space vid into the previous capture's vid space,
// or -1 for an added vertex.
func (rc *replayCtx) oldVID(c label.VID, nd int) int32 {
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

// remapped translates a captured outcome into the new vertex space.  With
// identity remaps the capture is shared as-is (outcomes are immutable);
// otherwise see remapOutcome.
func (rc *replayCtx) remapped(prev *candOutcome) *candOutcome {
	if rc.identity {
		return prev
	}
	return remapOutcome(prev, rc.ds)
}

// findReplay is the incremental path: region-scoped Phase I, then the
// candidate loop with Phase II outcome replay.
func (m *Matcher) findReplay(pat *pattern, prev *IncrementalState, ds *DirtySet) (*Result, *IncrementalState, error) {
	res := &Result{}
	res.Report.IncrementalMode = "replay"
	res.Report.DirtyVertices = len(ds.DirtyDevs) + len(ds.DirtyNets)

	nd, nn := m.g.NumDevices(), m.g.NumNets()
	rc := newReplayCtx(prev, ds, nd, nn)

	t0 := time.Now()
	p1Ref := obs.NoSpan
	if o := m.opts.Observe; o != nil {
		p1Ref = o.Begin(obs.KindPhase1, pat.s.Name)
		o.Attr(p1Ref, "mode", "replay")
		o.AttrInt(p1Ref, "dirty", int64(res.Report.DirtyVertices))
	}
	p1 := newPhase1(m, pat, &res.Report)
	gn := p1.gSpace.Size()

	// Previous finals translated into the new vertex space.  Added vertices
	// (no old counterpart) hold zero values that are never read: every
	// added vertex is dirty, hence in the region core, hence recomputed.
	prevLab := make([]label.Value, gn)
	prevState := make([]g1State, gn)
	if rc.identity {
		// Surviving vertices keep their indices; the old device and net
		// blocks land as two bulk copies (appended vertices past them are
		// dirty and recomputed, their zero values are never read).
		pd := prev.numDevs
		copy(prevLab[:pd], prev.gLab[:pd])
		copy(prevLab[nd:], prev.gLab[pd:])
		copy(prevState[:pd], prev.gState[:pd])
		copy(prevState[nd:], prev.gState[pd:])
	} else {
		for ov, nv := range ds.DevOld2New {
			if nv >= 0 {
				prevLab[nv] = prev.gLab[ov]
				prevState[nv] = prev.gState[ov]
			}
		}
		for ov, nv := range ds.NetOld2New {
			if nv >= 0 {
				prevLab[nd+int(nv)] = prev.gLab[prev.numDevs+ov]
				prevState[nd+int(nv)] = prev.gState[prev.numDevs+ov]
			}
		}
	}

	// The replay region: ball(dirty, 2E+2) through non-global vertices.
	e := prev.relabels
	depth, region := dirtyRegion(p1.gCSR, p1.gState, ds, nd, 2*e+2)
	var key label.VID
	var cv []label.VID
	if float64(len(region)) > incReplayCap*float64(gn) {
		// Degradation: the region covers most of the graph, so region
		// bookkeeping saves nothing.  Run full Phase I (exact, and the
		// capture falls out naturally); Phase II replay still applies.
		var err error
		key, cv, err = p1.run()
		res.Report.Phase1Duration = time.Since(t0)
		if o := m.opts.Observe; o != nil {
			o.Attr(p1Ref, "degraded", "true")
			o.AttrInt(p1Ref, "cv_size", int64(len(cv)))
			o.End(p1Ref)
		}
		if err != nil {
			res.Report.CancelledAt = "phase1"
			return res, nil, err
		}
	} else {
		// Out-of-region vertices hold the previous finals; region vertices
		// keep their fresh initial labels.  Worklists shrink to the region.
		for v := 0; v < gn; v++ {
			if depth[v] < 0 && p1.gState[v] != g1Global {
				p1.gLab[v] = prevLab[v]
				p1.gState[v] = prevState[v]
			}
		}
		regDev := make([]int32, 0, len(region))
		regNet := make([]int32, 0, len(region))
		for _, v := range region {
			if int(v) < nd {
				regDev = append(regDev, v)
			} else {
				regNet = append(regNet, v)
			}
		}
		sort.Slice(regDev, func(i, j int) bool { return regDev[i] < regDev[j] })
		sort.Slice(regNet, func(i, j int) bool { return regNet[i] < regNet[j] })
		p1.gActDev, p1.gActNet = regDev, regNet

		if err := p1.runRegion(); err != nil {
			res.Report.Phase1Duration = time.Since(t0)
			res.Report.CancelledAt = "phase1"
			if o := m.opts.Observe; o != nil {
				o.End(p1Ref)
			}
			return res, nil, err
		}
		// Depths beyond E+1 may be contaminated by the frozen boundary;
		// their fresh finals provably equal the previous finals, so restore
		// them.  Depths <= E+1 are exactly fresh.  gLab/gState now equal
		// the fresh full run's completed-sequence finals everywhere.
		for _, v := range region {
			if int(depth[v]) >= e+2 {
				p1.gLab[v] = prevLab[v]
				p1.gState[v] = prevState[v]
			}
		}
		// Candidate choice scans the full active sets.
		gnd := p1.gSpace.NumDevices()
		actDev := make([]int32, 0, gnd)
		actNet := make([]int32, 0, gn-gnd)
		for v := 0; v < gnd; v++ {
			if p1.gState[v] == g1Active {
				actDev = append(actDev, int32(v))
			}
		}
		for v := gnd; v < gn; v++ {
			if p1.gState[v] == g1Active {
				actNet = append(actNet, int32(v))
			}
		}
		p1.gActDev, p1.gActNet = actDev, actNet
		key, cv = p1.chooseCandidates()
		res.Report.Phase1Duration = time.Since(t0)
		if o := m.opts.Observe; o != nil {
			o.AttrInt(p1Ref, "region", int64(len(region)))
			o.AttrInt(p1Ref, "cv_size", int64(len(cv)))
			o.End(p1Ref)
		}
	}
	res.Report.CVSize = len(cv)
	return m.finishIncremental(pat, p1, key, cv, res, rc)
}

// runRegion executes the pattern-driven pass sequence of run() with two
// differences: consistency verdicts are ignored (the main-graph counts are
// region-local and meaningless; a fresh-run abort would only prove zero
// instances, which Phase II reproduces) and no tracing hooks fire (capture-
// compatible runs exclude them).  Main-graph work runs over whatever
// worklists the caller installed.
func (p *phase1) runRegion() error {
	if err := p.m.opts.cancelled(); err != nil {
		return err
	}
	p.consistency(false)
	p.consistency(true)
	maxRounds := p.sSpace.Size() + 8
	prevSig := p.partitionSignature()
	for round := 0; round < maxRounds; round++ {
		if err := p.m.opts.cancelled(); err != nil {
			return err
		}
		p.rep.Phase1Passes++
		p.relabelNets()
		if p.cancelErr != nil {
			return p.cancelErr
		}
		p.corruptNets()
		p.consistency(false)
		if p.allCorrupt(false) {
			break
		}
		p.relabelDevices()
		if p.cancelErr != nil {
			return p.cancelErr
		}
		p.corruptDevices()
		p.consistency(true)
		if p.allCorrupt(true) {
			break
		}
		sig := p.partitionSignature()
		if sig == prevSig {
			break
		}
		prevSig = sig
	}
	p.seqComplete = true
	return nil
}

// dirtyRegion BFS-expands the dirty set to the given radius over the CSR
// view, treating global (and bound) vertices as barriers: their labels are
// fixed, so no label influence enters or crosses them.  It returns the
// depth array (-1 outside the region) and the region's vertices in
// discovery order.
func dirtyRegion(g *csr.Graph, gState []g1State, ds *DirtySet, nd, radius int) (depth []int32, region []int32) {
	depth = make([]int32, g.Size())
	for i := range depth {
		depth[i] = -1
	}
	region = make([]int32, 0, len(ds.DirtyDevs)+len(ds.DirtyNets))
	seed := func(v int32) {
		if depth[v] < 0 && gState[v] != g1Global {
			depth[v] = 0
			region = append(region, v)
		}
	}
	for _, v := range ds.DirtyDevs {
		seed(v)
	}
	for _, v := range ds.DirtyNets {
		seed(v + int32(nd))
	}
	for head := 0; head < len(region); head++ {
		v := region[head]
		if int(depth[v]) >= radius {
			continue
		}
		for e := g.Start[v]; e < g.Start[v+1]; e++ {
			nv := g.Adj[e]
			if depth[nv] >= 0 || gState[nv] == g1Global {
				continue
			}
			depth[nv] = depth[v] + 1
			region = append(region, nv)
		}
	}
	return depth, region
}

// finishIncremental runs the Phase II candidate loop — replaying captured
// outcomes where the replay context allows — and assembles the new capture.
// It mirrors Find's candidate loop exactly (MatchAll semantics; the other
// policies took the legacy path).
func (m *Matcher) finishIncremental(pat *pattern, p1 *phase1, key label.VID, cv []label.VID, res *Result, rc *replayCtx) (*Result, *IncrementalState, error) {
	nd := m.g.NumDevices()
	state := &IncrementalState{
		numDevs:  nd,
		numNets:  m.g.NumNets(),
		complete: p1.seqComplete,
		relabels: p1.relabelEvents,
		keyVID:   -1,
		outcomes: make(map[int32]*candOutcome, len(cv)),
	}
	for _, n := range m.g.Nets {
		if n.Global {
			state.globals++
		}
	}

	if len(cv) == 0 {
		state.gLab = append([]label.Value(nil), p1.gLab...)
		state.gState = append([]g1State(nil), p1.gState...)
		return res, state, nil
	}
	res.Report.KeyVertex = pat.space.Name(key)
	res.Report.KeyIsDevice = pat.space.IsDevice(key)
	state.keyVID = key

	t1 := time.Now()
	p2Ref := obs.NoSpan
	if o := m.opts.Observe; o != nil {
		p2Ref = o.Begin(obs.KindPhase2, pat.s.Name)
	}
	p2, err := newP2Region(m, pat, key, &res.Report)
	if err != nil {
		// The pattern references a global net absent from G: no instance
		// can exist (same contract as Find).
		res.Report.Phase2Duration = time.Since(t1)
		if o := m.opts.Observe; o != nil {
			o.End(p2Ref)
		}
		state.gLab = append([]label.Value(nil), p1.gLab...)
		state.gState = append([]g1State(nil), p1.gState...)
		return res, state, nil
	}
	defer p2.close()

	// The Phase II dirty ball: candidates within the pattern radius of a
	// dirty vertex must be re-verified, everything else replays.
	var inA []bool
	keySame := false
	if rc != nil {
		inA = phase2DirtyBall(p2.g, p2.fixedGvid, rc.ds, nd, p2.radius)
		// Pattern VIDs are index-derived, so a structurally identical
		// pattern yields the same key VID; a different key changes every
		// candidate's search even far from the edits.
		keySame = rc.prev.keyVID == key
	}

	seen := make(map[string]bool)
	var sigBuf []int
	for _, c := range cv {
		if m.opts.MaxInstances > 0 && len(res.Instances) >= m.opts.MaxInstances {
			break
		}
		if err := m.opts.cancelled(); err != nil {
			res.Report.CancelledAt = "phase2"
			res.Report.Phase2Duration = time.Since(t1)
			if o := m.opts.Observe; o != nil {
				o.End(p2Ref)
			}
			return res, nil, err
		}
		res.Report.Candidates++
		var inst *Instance
		var oc *candOutcome
		if keySame && !inA[c] {
			if ov := rc.oldVID(c, nd); ov >= 0 {
				if prevOC, ok := rc.prev.outcomes[ov]; ok {
					oc = rc.remapped(prevOC)
				}
			}
		}
		if oc != nil {
			// Replay: advance the unique-label stream exactly as the
			// verification would have and rebuild the instance from the
			// captured images.
			p2.uniq.Skip(oc.draws)
			res.Report.Replayed++
			inst = m.instanceFromOutcome(pat, oc)
		} else {
			d0 := p2.uniq.Draws()
			inst = p2.verifyCandidate(key, c)
			if err := p2.cancelled(); err != nil {
				res.Report.CancelledAt = "phase2"
				res.Report.Phase2Duration = time.Since(t1)
				if o := m.opts.Observe; o != nil {
					o.End(p2Ref)
				}
				return res, nil, err
			}
			res.Report.Recomputed++
			oc = m.outcomeFromInstance(pat, inst, p2.uniq.Draws()-d0)
		}
		state.outcomes[int32(c)] = oc
		if inst == nil {
			continue
		}
		res.Report.CandidatesMatched++
		var sig string
		sig, sigBuf = inst.signature(sigBuf)
		if !seen[sig] {
			seen[sig] = true
			res.Instances = append(res.Instances, inst)
			res.Report.Instances++
			res.Report.MatchedDevices += len(inst.DevMap)
		}
	}
	res.Report.Phase2Duration = time.Since(t1)
	if o := m.opts.Observe; o != nil {
		o.AttrInt(p2Ref, "candidates", int64(res.Report.Candidates))
		o.AttrInt(p2Ref, "replayed", int64(res.Report.Replayed))
		o.AttrInt(p2Ref, "recomputed", int64(res.Report.Recomputed))
		o.AttrInt(p2Ref, "instances", int64(res.Report.Instances))
		o.End(p2Ref)
	}
	state.gLab = append([]label.Value(nil), p1.gLab...)
	state.gState = append([]g1State(nil), p1.gState...)
	return res, state, nil
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

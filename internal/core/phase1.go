package core

import (
	"fmt"
	"sort"
	"time"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
)

// Vertex states used by Phase I.  Pattern vertices carry valid/corrupt bits
// (paper §III); main-graph vertices carry active/pruned bits implementing
// the "removed from consideration" consistency-check optimization (Fig. 4).
// Global nets on both sides hold fixed name-derived labels, are never
// relabeled, never corrupt, and never enter partitions or the candidate
// vector (paper §V.A).
type p1State uint8

const (
	p1Valid   p1State = iota // label provably equals the image's label
	p1Corrupt                // label may differ from the image's label
	p1Global                 // special signal: fixed label, outside the algorithm
)

type g1State uint8

const (
	g1Active g1State = iota // still a possible image of some valid pattern vertex
	g1Pruned                // label matched no valid pattern partition; keeps last label
	g1Global                // special signal
)

// phase1 carries the state of the candidate-vector generation phase.  The
// relabeling passes walk a flat CSR view with compact active-vertex
// worklists (phase1csr.go); a pointer-walking reference formulation of the
// same passes lives with the tests and must agree bit for bit.
type phase1 struct {
	m   *Matcher
	pat *pattern
	rep *stats.Report

	sSpace, gSpace *label.Space
	sLab, gLab     []label.Value
	sState         []p1State
	gState         []g1State

	// Flat views of both graphs plus the active-vertex worklists.  The
	// lists hold exactly the valid (pattern) or active (main) non-global
	// vertices of each kind, in ascending VID order, and are compacted as
	// vertices corrupt or prune, so a pruned vertex costs nothing after the
	// pass that pruned it.
	sCSR, gCSR       *csr.Graph
	sActDev, sActNet []int32
	gActDev, gActNet []int32

	// Consistency scratch: the valid pattern labels of a pass, sorted and
	// run-length compressed into distinct keys with pattern counts (sCnt)
	// and main-graph counts (gCnt).  Flat arrays instead of maps: the
	// per-vertex prune test becomes a binary search.
	sKeys []label.Value
	sCnt  []int32
	gCnt  []int32

	// cancelErr latches the first non-nil Options.Cancel result observed
	// inside a relabeling pass (polled every p1CancelBlock worklist
	// vertices); run checks it after each pass.
	cancelErr error

	// tracer, when non-nil, records per-round state for the Fig. 2/4-style
	// rendering (Options.TraceTable).
	tracer *phase1Tracer

	// trace, when non-nil, is the scope under the run's phase1 span that
	// receives one pass span per half-pass; set only under a trace
	// (obs.NewTrace).  passStart is when the current half-pass began.
	trace     *obs.Scope
	passStart time.Time
}

func newPhase1(m *Matcher, pat *pattern, rep *stats.Report) *phase1 {
	p := &phase1{
		m: m, pat: pat, rep: rep,
		sSpace: pat.space,
		gSpace: m.gSpace,
	}
	p.sLab = make([]label.Value, p.sSpace.Size())
	p.sState = make([]p1State, p.sSpace.Size())
	p.gLab = make([]label.Value, p.gSpace.Size())
	p.gState = make([]g1State, p.gSpace.Size())

	for _, d := range pat.s.Devices {
		v := p.sSpace.DevVID(d)
		if d.Type == graph.WildcardType {
			// A wildcard's image may have any type, so its label carries no
			// usable information (paper Invariant 1 cannot hold for it).
			p.sState[v] = p1Corrupt
			continue
		}
		p.sLab[v] = initialDeviceLabel(m, pat, d)
	}
	for _, n := range pat.s.Nets {
		v := p.sSpace.NetVID(n)
		switch {
		case pat.global[n.Index]:
			p.sLab[v] = label.GlobalLabel(n.Name)
			p.sState[v] = p1Global
		case pat.bind[n] != "":
			// Bound ports are pre-matched like specials; the label keys on
			// the target net's name so both sides agree (paper §V.A:
			// user-supplied constraints on the subcircuit).
			p.sLab[v] = label.BindLabel(pat.bind[n])
			p.sState[v] = p1Global
		case n.Port:
			// External nets have a different degree in the main graph, so
			// their labels are corrupt from the start (paper Fig. 2).
			p.sLab[v] = label.DegreeLabel(n.Degree())
			p.sState[v] = p1Corrupt
		default:
			p.sLab[v] = label.DegreeLabel(n.Degree())
		}
	}
	p.gCSR = m.csrView()
	initialLabels(p.gCSR, m.g, p.gLab, p.gState, pat.gGlobals)
	// Bind targets get the same fixed labels as their pattern ports,
	// overriding the initial label for this run only.
	for _, target := range pat.bind {
		if gn := m.g.NetByName(target); gn != nil {
			v := p.gSpace.NetVID(gn)
			p.gLab[v] = label.BindLabel(target)
			p.gState[v] = g1Global
		}
	}
	p.initCSR()
	return p
}

// initialDeviceLabel is the vertex-invariant label of a device: its type,
// folded with the fixed labels of any global nets on its terminals.  Global
// nets match by name, so a device's rail connections are invariant across
// the pattern and the main graph; folding them in sharpens the initial
// partitioning (a transistor sourcing from VDD never shares a partition
// with one buried in a stack), which is what makes rail-anchored patterns
// cheap to locate.
func initialDeviceLabel(m *Matcher, pat *pattern, d *graph.Device) label.Value {
	if ablateGlobalFold {
		return m.typeLabel(d.Type)
	}
	return foldedDeviceLabel(m.typeLabel, d, pat.global)
}

// run executes the optimized Phase I algorithm (paper §III) and returns the
// key vertex and candidate vector.  An empty candidate vector means Phase I
// proved no instance exists.  The error is non-nil only when Options.Cancel
// fired: cancellation is polled before every relabeling pass and inside
// each main-graph pass (every p1CancelBlock worklist vertices), so a
// deadline holds even while one pass walks a huge circuit.
func (p *phase1) run() (key label.VID, cv []label.VID, err error) {
	if p.m.opts.TraceTable != nil {
		p.tracer = newPhase1Tracer(p)
	}
	if err := p.m.opts.cancelled(); err != nil {
		return 0, nil, err
	}
	// Consistency check on the initial labeling (paper Fig. 4 prunes after
	// the initial labeling).
	if !p.consistency(false) || !p.consistency(true) {
		p.rep.EarlyAbort = true
		return 0, nil, nil
	}
	if p.tracer != nil {
		p.tracer.snapshot("initial")
	}

	maxRounds := p.sSpace.Size() + 8
	prevSig := p.partitionSignature()
	if p.trace != nil {
		p.passStart = time.Now()
	}
	for round := 0; round < maxRounds; round++ {
		if err := p.m.opts.cancelled(); err != nil {
			return 0, nil, err
		}
		p.rep.Phase1Passes++

		// Relabel all valid net vertices, then corrupt those with corrupt
		// device neighbors.  A cancellation latched inside the pass must be
		// reported before the consistency bool is interpreted, so a cut
		// pass is never misread as an early abort.
		p.relabelNets()
		if p.cancelErr != nil {
			return 0, nil, p.cancelErr
		}
		p.corruptNets()
		if !p.consistency(false) {
			p.rep.EarlyAbort = true
			return 0, nil, nil
		}
		if p.tracer != nil {
			p.tracer.snapshot(fmt.Sprintf("nets %d", round+1))
		}
		if p.trace != nil {
			p.emitPass(round+1, false)
		}
		if p.allCorrupt(false) {
			break
		}

		// Relabel all valid device vertices, then corrupt those with
		// corrupt net neighbors.
		p.relabelDevices()
		if p.cancelErr != nil {
			return 0, nil, p.cancelErr
		}
		p.corruptDevices()
		if !p.consistency(true) {
			p.rep.EarlyAbort = true
			return 0, nil, nil
		}
		if p.tracer != nil {
			p.tracer.snapshot(fmt.Sprintf("devs %d", round+1))
		}
		if p.trace != nil {
			p.emitPass(round+1, true)
		}
		if p.allCorrupt(true) {
			break
		}

		// Stability guard: when the valid partition structure of the
		// pattern stops refining, further rounds cannot shrink the
		// candidate vector (needed for patterns with no external nets,
		// which never corrupt).
		sig := p.partitionSignature()
		if sig == prevSig {
			break
		}
		prevSig = sig
	}
	key, cv = p.chooseCandidates()
	return key, cv, nil
}

// emitPass records the half-pass that just ended on one vertex kind
// (devices if devs, otherwise nets) as a pass span under the phase1 span:
// the pattern's valid/corrupt split and partition count for that kind, and
// the main graph's active/pruned split after the consistency check.  The
// span runs from the end of the previous half-pass, or from the first one's
// start.
func (p *phase1) emitPass(pass int, devs bool) {
	tr := p.trace
	ref := tr.Record(obs.KindPass, "", p.passStart)
	var sCorrupt, gActive, gPruned int
	var valid []label.Value
	// Device and net vertices occupy contiguous VID ranges (devices first),
	// so one range scan per side replaces the per-vertex DevVID/NetVID
	// translation the pointer walk needed.
	side := "nets"
	sLo, sHi := p.sSpace.NumDevices(), p.sSpace.Size()
	gLo, gHi := p.gSpace.NumDevices(), p.gSpace.Size()
	if devs {
		side = "devices"
		sLo, sHi = 0, p.sSpace.NumDevices()
		gLo, gHi = 0, p.gSpace.NumDevices()
	}
	for v := sLo; v < sHi; v++ {
		switch p.sState[v] {
		case p1Valid:
			valid = append(valid, p.sLab[v])
		case p1Corrupt:
			sCorrupt++
		}
	}
	for v := gLo; v < gHi; v++ {
		switch p.gState[v] {
		case g1Active:
			gActive++
		case g1Pruned:
			gPruned++
		}
	}
	tr.AttrInt(ref, "pass", int64(pass))
	tr.Attr(ref, "side", side)
	tr.AttrInt(ref, "s_valid", int64(len(valid)))
	tr.AttrInt(ref, "s_corrupt", int64(sCorrupt))
	tr.AttrInt(ref, "s_partitions", int64(countDistinct(valid)))
	tr.AttrInt(ref, "g_active", int64(gActive))
	tr.AttrInt(ref, "g_pruned", int64(gPruned))
	p.passStart = time.Now()
}

// countDistinct sorts labs in place (allocation-free; the slice is
// pattern-sized) and counts distinct values.
func countDistinct(labs []label.Value) int {
	sortLabels(labs)
	n := 0
	for i, v := range labs {
		if i == 0 || v != labs[i-1] {
			n++
		}
	}
	return n
}

// relabelNets applies the Fig. 3 relabeling function to every valid pattern
// net and every active main-graph net simultaneously.
func (p *phase1) relabelNets() {
	p.relabelCSR(p.sActNet, p.gActNet)
}

// relabelDevices is the device-side counterpart of relabelNets.
func (p *phase1) relabelDevices() {
	p.relabelCSR(p.sActDev, p.gActDev)
}

// corruptNets marks valid pattern nets corrupt when any neighboring device
// is corrupt; its label may then differ from its image's label.
func (p *phase1) corruptNets() { p.sActNet = p.corruptCSR(p.sActNet) }

// corruptDevices marks valid pattern devices corrupt when any neighboring
// net is corrupt.  Global nets never corrupt their neighbors.
func (p *phase1) corruptDevices() { p.sActDev = p.corruptCSR(p.sActDev) }

// allCorrupt reports whether every pattern vertex of the given kind (devices
// if devs, otherwise non-global nets) has been invalidated.  The worklists
// hold exactly the valid vertices of each kind.
func (p *phase1) allCorrupt(devs bool) bool {
	if devs {
		return len(p.sActDev) == 0
	}
	return len(p.sActNet) == 0
}

// partitionSignature canonically encodes the valid partition structure of
// the pattern, used by the stability guard.  Two rounds with the same
// signature refine identically forever after.
func (p *phase1) partitionSignature() string {
	ids := make(map[label.Value]int)
	sig := make([]byte, 0, p.sSpace.Size()*2)
	for v := 0; v < p.sSpace.Size(); v++ {
		sig = append(sig, byte(p.sState[v]))
		if p.sState[v] != p1Valid {
			continue
		}
		id, ok := ids[p.sLab[v]]
		if !ok {
			id = len(ids)
			ids[p.sLab[v]] = id
		}
		sig = append(sig, byte(id), byte(id>>8))
	}
	return string(sig)
}

// chooseCandidates picks the smallest active main-graph partition whose
// label also labels valid pattern vertices; ties prefer smaller pattern
// partitions, then lower labels for determinism.  The first pattern vertex
// with the chosen label becomes the key vertex.
func (p *phase1) chooseCandidates() (label.VID, []label.VID) {
	type part struct {
		lab    label.Value
		dev    bool
		sFirst label.VID
		sCount int
	}
	sParts := make(map[label.Value]*part)
	order := make([]*part, 0)
	addS := func(v label.VID) {
		lab := p.sLab[v]
		pp, ok := sParts[lab]
		if !ok {
			pp = &part{lab: lab, dev: p.sSpace.IsDevice(v), sFirst: v}
			sParts[lab] = pp
			order = append(order, pp)
		}
		pp.sCount++
	}
	// The worklists hold exactly the valid (resp. active) vertices in
	// ascending VID order, devices before nets — the same order as a full
	// scan, so the sFirst tiebreak and the per-label candidate order match
	// the reference formulation.
	for _, v := range p.sActDev {
		addS(label.VID(v))
	}
	for _, v := range p.sActNet {
		addS(label.VID(v))
	}
	if len(order) == 0 {
		return p.fallbackCandidates()
	}
	// Group active main-graph vertices by label, split by vertex kind so a
	// cross-kind label collision cannot mix devices and nets.
	gDev := make(map[label.Value][]label.VID)
	gNet := make(map[label.Value][]label.VID)
	addG := func(v label.VID) {
		if _, ok := sParts[p.gLab[v]]; !ok {
			return
		}
		if p.gSpace.IsDevice(v) {
			gDev[p.gLab[v]] = append(gDev[p.gLab[v]], v)
		} else {
			gNet[p.gLab[v]] = append(gNet[p.gLab[v]], v)
		}
	}
	for _, v := range p.gActDev {
		addG(label.VID(v))
	}
	for _, v := range p.gActNet {
		addG(label.VID(v))
	}
	var best *part
	var bestCV []label.VID
	for _, pp := range order {
		var cands []label.VID
		if pp.dev {
			cands = gDev[pp.lab]
		} else {
			cands = gNet[pp.lab]
		}
		if len(cands) < pp.sCount {
			// A main-graph partition smaller than its pattern partition
			// proves no instance exists.
			p.rep.EarlyAbort = true
			return 0, nil
		}
		if best == nil ||
			len(cands) < len(bestCV) ||
			(len(cands) == len(bestCV) && pp.sCount < best.sCount) ||
			(len(cands) == len(bestCV) && pp.sCount == best.sCount && pp.lab < best.lab) {
			best = pp
			bestCV = cands
		}
	}
	if best == nil {
		return 0, nil
	}
	sort.Slice(bestCV, func(i, j int) bool { return bestCV[i] < bestCV[j] })
	return best.sFirst, bestCV
}

// fallbackCandidates handles patterns with no valid vertices at all (every
// device a wildcard and every net external): the key is the first pattern
// device and the candidate vector is every arity-compatible main-graph
// device.  Complete, but with no Phase I filtering.
func (p *phase1) fallbackCandidates() (label.VID, []label.VID) {
	key := p.pat.s.Devices[0]
	var cv []label.VID
	for _, d := range p.m.g.Devices {
		if len(d.Pins) != len(key.Pins) {
			continue
		}
		if key.Type != graph.WildcardType && d.Type != key.Type {
			continue
		}
		cv = append(cv, p.gSpace.DevVID(d))
	}
	return p.sSpace.DevVID(key), cv
}

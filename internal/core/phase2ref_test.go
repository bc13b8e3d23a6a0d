package core

import (
	"fmt"
	"io"

	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
)

// phase2 is the whole-graph formulation of Phase II (paper §IV): the same
// relabel / partition / match / guess loop as the production region engine
// (phase2region.go), but run over gSpace vids with main-graph-sized arrays
// and no ball extraction.  It is the reference the region engine is held
// to: TestPhase2Differential compares instances and their order, and
// TestTraceTableMatchesReference compares the per-pass Table-1 state.  It
// never polls Options.Cancel and allocates its own arrays instead of taking
// scratch from the view's pool.
//
// The pattern-side arrays are dense and reset wholesale between
// candidates; the main-graph arrays are dense but sparsely populated, with
// a touched list so only the region a candidate actually explored is
// reset.
type phase2 struct {
	m   *Matcher
	pat *pattern
	rep *stats.Report

	sSpace, gSpace *label.Space
	uniq           *label.UniqueSource
	devType        []label.Value // main-graph type labels (csr.Graph.DevType)

	// Per-candidate templates: label/safety/match state with only the
	// pre-matched global nets filled in.
	sInitLab   []label.Value
	sInitSafe  []bool
	sInitMatch []label.VID

	// Live pattern-side state.
	sLab   []label.Value
	sSafe  []bool
	sMatch []label.VID

	// Live main-graph state.  Entries for global nets are set once at
	// construction and are never in the touched list, so candidate resets
	// and backtracking leave them intact.
	gLab   []label.Value
	gSafe  []bool
	gMatch []label.VID

	touched   []label.VID // main-graph vertices with candidate-local state
	inTouched []bool

	// gSafeList holds safe, non-fixed main-graph vertices: the spreading
	// frontier whose neighbors are relabeled each pass.
	gSafeList []label.VID

	// fixedS and fixedG mark pre-matched vertices (global nets and bound
	// ports / their targets): they contribute labels but never trigger
	// relabeling, are never reset, and never enter partitions.
	fixedS []bool
	fixedG []bool

	matched int // pattern vertices matched so far (globals excluded)

	// Scratch for simultaneous relabeling.
	sPendV []label.VID
	sPendL []label.Value
	gPendV []label.VID
	gPendL []label.Value
	mark   []uint32 // round marker per main-graph vertex
	markID uint32

	// Sorted (label, vid) pair lists, walked as runs.
	sPairs []labVID
	gPairs []labVID

	// table records the last seeded candidate's passes when
	// Options.TraceTable is set, like the region engine's.
	table *tableTracer
}

func newPhase2(m *Matcher, pat *pattern, rep *stats.Report) (*phase2, error) {
	p := &phase2{
		m: m, pat: pat, rep: rep,
		sSpace:  pat.space,
		gSpace:  m.gSpace,
		uniq:    label.NewUniqueSource(m.opts.Seed),
		devType: m.csrView().DevType,
	}
	sn, gn := p.sSpace.Size(), p.gSpace.Size()
	p.sInitLab = make([]label.Value, sn)
	p.sInitSafe = make([]bool, sn)
	p.sInitMatch = make([]label.VID, sn)
	p.sLab = make([]label.Value, sn)
	p.sSafe = make([]bool, sn)
	p.sMatch = make([]label.VID, sn)
	p.fixedS = make([]bool, sn)
	for i := range p.sInitMatch {
		p.sInitMatch[i] = unmatched
	}
	p.gLab = make([]label.Value, gn)
	p.gSafe = make([]bool, gn)
	p.gMatch = make([]label.VID, gn)
	p.inTouched = make([]bool, gn)
	p.mark = make([]uint32, gn)
	p.fixedG = make([]bool, gn)
	for i := range p.gMatch {
		p.gMatch[i] = unmatched
	}
	if err := p.initPrematch(); err != nil {
		return nil, err
	}
	return p, nil
}

// initPrematch pre-matches global nets by name (paper §V.A) and bound
// ports to their targets.  A pattern global or bind target with no
// counterpart in the main graph means no instance can exist.
func (p *phase2) initPrematch() error {
	m, pat := p.m, p.pat
	prematch := func(n *graph.Net, gn *graph.Net, lab label.Value) error {
		sv, gv := p.sSpace.NetVID(n), p.gSpace.NetVID(gn)
		if p.gMatch[gv] != unmatched {
			return fmt.Errorf("core: net %q would be the image of two pattern nets (%s and %s)",
				gn.Name, p.sSpace.Name(p.gMatch[gv]), n.Name)
		}
		p.sInitLab[sv] = lab
		p.sInitSafe[sv] = true
		p.sInitMatch[sv] = gv
		p.fixedS[sv] = true
		p.gLab[gv] = lab
		p.gSafe[gv] = true
		p.gMatch[gv] = sv
		p.fixedG[gv] = true
		return nil
	}
	for _, n := range pat.s.Nets {
		switch {
		case pat.global[n.Index]:
			gn := m.g.NetByName(n.Name)
			if gn == nil {
				return fmt.Errorf("core: pattern global net %q absent from circuit %s", n.Name, m.g.Name)
			}
			if err := prematch(n, gn, label.GlobalLabel(n.Name)); err != nil {
				return err
			}
		case pat.bind[n] != "":
			target := pat.bind[n]
			gn := m.g.NetByName(target)
			if gn == nil {
				return fmt.Errorf("core: bind target net %q absent from circuit %s", target, m.g.Name)
			}
			if gn.Degree() < n.Degree() {
				return fmt.Errorf("core: bind target %q has degree %d, pattern port %q needs at least %d",
					target, gn.Degree(), n.Name, n.Degree())
			}
			if err := prematch(n, gn, label.BindLabel(target)); err != nil {
				return err
			}
		}
	}
	return nil
}

// reset prepares the per-candidate state.
func (p *phase2) reset() {
	copy(p.sLab, p.sInitLab)
	copy(p.sSafe, p.sInitSafe)
	copy(p.sMatch, p.sInitMatch)
	for _, v := range p.touched {
		p.gLab[v] = 0
		p.gSafe[v] = false
		p.gMatch[v] = unmatched
		p.inTouched[v] = false
	}
	p.touched = p.touched[:0]
	p.gSafeList = p.gSafeList[:0]
	p.matched = 0
}

// touch registers candidate-local state on a main-graph vertex.
func (p *phase2) touch(v label.VID) {
	if !p.inTouched[v] {
		p.inTouched[v] = true
		p.touched = append(p.touched, v)
	}
}

func (p *phase2) consumedDev(v label.VID) bool {
	return p.gSpace.IsDevice(v) && p.m.consumed[v]
}

// match records s ↔ g as matched under a fresh unique label.
func (p *phase2) match(sv, gv label.VID) {
	lab := p.uniq.Next()
	p.sLab[sv] = lab
	p.sSafe[sv] = true
	p.sMatch[sv] = gv
	p.touch(gv)
	p.gLab[gv] = lab
	p.gSafe[gv] = true
	p.gMatch[gv] = sv
	if !p.fixedG[gv] {
		p.gSafeList = append(p.gSafeList, gv)
	}
	p.matched++
}

// verify postulates c = image(key) and runs the Phase II search, returning
// a verified instance or nil.
func (p *phase2) verify(key, c label.VID) *Instance {
	if p.consumedDev(c) || p.fixedG[c] {
		return nil
	}
	if p.sSpace.IsDevice(key) != p.gSpace.IsDevice(c) {
		return nil
	}
	if p.sSpace.IsDevice(key) && !p.compatible(key, c) {
		return nil
	}
	p.reset()
	if p.m.opts.TraceTable != nil {
		p.table = newTableTracer(p.sSpace, p.gSpace, p.gSpace.Name(c))
	}
	p.match(key, c)
	if p.table != nil {
		p.snapshotTable()
	}
	var inst *Instance
	if p.solve(0) {
		inst = p.buildInstance()
	}
	if p.table != nil {
		p.table.render(p.m.opts.TraceTable, inst != nil)
	}
	return inst
}

// snapshotTable records the state after the seed match or one solve pass:
// the labeled vertices of the touched list, keyed by gvid.
func (p *phase2) snapshotTable() {
	sMatched := make([]bool, len(p.sMatch))
	for i, gv := range p.sMatch {
		sMatched[i] = gv != unmatched
	}
	g := p.table.pass(p.sLab, p.sSafe, sMatched)
	for _, v := range p.touched {
		if p.gLab[v] != 0 {
			g[v] = gCell{p.gLab[v], p.gSafe[v], p.gMatch[v] != unmatched}
		}
	}
}

// solve runs the relabel / check / mark-safe / match loop until every
// pattern vertex is matched, guessing on stalls.
func (p *phase2) solve(depth int) bool {
	for {
		p.rep.Phase2Passes++
		p.relabelRound()
		progress, ok := p.partitionRound()
		if p.table != nil {
			p.snapshotTable()
		}
		if !ok {
			return false
		}
		if p.matched == p.pat.required {
			p.rep.VerifyCalls++
			return p.verifyMapping()
		}
		if !progress {
			return p.guess(depth)
		}
	}
}

// relabelRound simultaneously relabels, on both sides, every unmatched
// vertex adjacent to at least one safe non-global vertex.
func (p *phase2) relabelRound() {
	p.sPendV = p.sPendV[:0]
	p.sPendL = p.sPendL[:0]
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] != unmatched || p.fixedS[vid] {
			continue
		}
		newLab, triggered := p.relabelS(vid)
		if triggered {
			p.sPendV = append(p.sPendV, vid)
			p.sPendL = append(p.sPendL, newLab)
		}
	}
	p.markID++
	p.gPendV = p.gPendV[:0]
	p.gPendL = p.gPendL[:0]
	visit := func(nv label.VID) {
		if p.mark[nv] == p.markID {
			return
		}
		p.mark[nv] = p.markID
		if p.gMatch[nv] != unmatched || p.fixedG[nv] || p.consumedDev(nv) {
			return
		}
		newLab, triggered := p.relabelG(nv)
		if triggered {
			p.gPendV = append(p.gPendV, nv)
			p.gPendL = append(p.gPendL, newLab)
		}
	}
	for _, sv := range p.gSafeList {
		if p.gSpace.IsDevice(sv) {
			for _, pin := range p.gSpace.Device(sv).Pins {
				visit(p.gSpace.NetVID(pin.Net))
			}
		} else {
			for _, conn := range p.gSpace.Net(sv).Conns {
				visit(p.gSpace.DevVID(conn.Dev))
			}
		}
	}
	for i, v := range p.sPendV {
		p.sLab[v] = p.sPendL[i]
	}
	for i, v := range p.gPendV {
		p.touch(v)
		p.gLab[v] = p.gPendL[i]
	}
}

func (p *phase2) relabelS(v label.VID) (label.Value, bool) {
	acc := p.sLab[v]
	triggered := false
	if p.sSpace.IsDevice(v) {
		d := p.sSpace.Device(v)
		if acc == 0 && !p.pat.wildcards {
			acc = p.m.typeLabel(d.Type)
		}
		for _, pin := range d.Pins {
			nv := p.sSpace.NetVID(pin.Net)
			if !p.sSafe[nv] {
				continue
			}
			acc = label.Combine(acc, pin.Class, p.sLab[nv])
			if !p.fixedS[nv] {
				triggered = true
			}
		}
	} else {
		n := p.sSpace.Net(v)
		for _, conn := range n.Conns {
			dv := p.sSpace.DevVID(conn.Dev)
			if !p.sSafe[dv] {
				continue
			}
			acc = label.Combine(acc, conn.Dev.Pins[conn.Pin].Class, p.sLab[dv])
			triggered = true
		}
	}
	return acc, triggered
}

func (p *phase2) relabelG(v label.VID) (label.Value, bool) {
	acc := p.gLab[v]
	triggered := false
	if p.gSpace.IsDevice(v) {
		d := p.gSpace.Device(v)
		if acc == 0 && !p.pat.wildcards {
			acc = p.devType[v]
		}
		for _, pin := range d.Pins {
			nv := p.gSpace.NetVID(pin.Net)
			if !p.gSafe[nv] {
				continue
			}
			acc = label.Combine(acc, pin.Class, p.gLab[nv])
			if !p.fixedG[nv] {
				triggered = true
			}
		}
	} else {
		n := p.gSpace.Net(v)
		for _, conn := range n.Conns {
			dv := p.gSpace.DevVID(conn.Dev)
			if !p.gSafe[dv] {
				continue
			}
			acc = label.Combine(acc, conn.Dev.Pins[conn.Pin].Class, p.gLab[dv])
			triggered = true
		}
	}
	return acc, triggered
}

// partitionRound fails the candidate when a main-graph partition is
// smaller than the same-label pattern partition, marks equal-sized
// partitions safe, and matches singleton pairs.
func (p *phase2) partitionRound() (progress, ok bool) {
	p.collectPairs()
	si, gi := 0, 0
	for si < len(p.sPairs) {
		lab := p.sPairs[si].lab
		sEnd := si + 1
		for sEnd < len(p.sPairs) && p.sPairs[sEnd].lab == lab {
			sEnd++
		}
		for gi < len(p.gPairs) && p.gPairs[gi].lab < lab {
			gi++
		}
		gStart := gi
		for gi < len(p.gPairs) && p.gPairs[gi].lab == lab {
			gi++
		}
		cs, cg := sEnd-si, gi-gStart
		if cg < cs {
			return false, false
		}
		if cg == cs {
			for k := si; k < sEnd; k++ {
				if v := p.sPairs[k].vid; !p.sSafe[v] {
					p.sSafe[v] = true
					progress = true
				}
			}
			for k := gStart; k < gi; k++ {
				if v := p.gPairs[k].vid; !p.gSafe[v] {
					p.gSafe[v] = true
					p.gSafeList = append(p.gSafeList, v)
					progress = true
				}
			}
			if cs == 1 {
				sv, gv := p.sPairs[si].vid, p.gPairs[gStart].vid
				if !p.compatible(sv, gv) {
					return false, false
				}
				p.match(sv, gv)
				progress = true
			}
		}
		si = sEnd
	}
	return progress, true
}

func (p *phase2) collectPairs() {
	p.sPairs = p.sPairs[:0]
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] == unmatched && p.sLab[vid] != 0 {
			p.sPairs = append(p.sPairs, labVID{p.sLab[vid], vid})
		}
	}
	p.gPairs = p.gPairs[:0]
	for _, vid := range p.touched {
		if p.gMatch[vid] == unmatched && p.gLab[vid] != 0 && !p.consumedDev(vid) {
			p.gPairs = append(p.gPairs, labVID{p.gLab[vid], vid})
		}
	}
	sortPairs(p.sPairs)
	sortPairs(p.gPairs)
}

// gRun returns the slice of gPairs carrying the given label.
func (p *phase2) gRun(lab label.Value) []labVID {
	lo, hi := 0, len(p.gPairs)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.gPairs[mid].lab < lab {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	for lo < len(p.gPairs) && p.gPairs[lo].lab == lab {
		lo++
	}
	return p.gPairs[start:lo]
}

// compatible compares the vertex objects directly: types by name, pin
// counts, and net degrees.
func (p *phase2) compatible(sv, gv label.VID) bool {
	if p.sSpace.IsDevice(sv) != p.gSpace.IsDevice(gv) {
		return false
	}
	if p.sSpace.IsDevice(sv) {
		sd, gd := p.sSpace.Device(sv), p.gSpace.Device(gv)
		if len(sd.Pins) != len(gd.Pins) {
			return false
		}
		return sd.Type == gd.Type || sd.Type == graph.WildcardType
	}
	if ablateDegreeCheck {
		return true
	}
	sn, gn := p.sSpace.Net(sv), p.gSpace.Net(gv)
	if sn.Port {
		return gn.Degree() >= sn.Degree()
	}
	return gn.Degree() == sn.Degree()
}

// guess picks the unmatched pattern vertex whose label has the smallest
// main-graph run and tries each member in turn, backtracking on failure.
func (p *phase2) guess(depth int) bool {
	if depth >= guessDepthLimit {
		p.rep.GuessLimitHits++
		return false
	}
	var bestS label.VID = -1
	bestSize := 0
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] != unmatched || p.sLab[vid] == 0 {
			continue
		}
		size := len(p.gRun(p.sLab[vid]))
		if size == 0 {
			return false
		}
		if bestS < 0 || size < bestSize {
			bestS, bestSize = vid, size
		}
	}
	if bestS < 0 {
		return false
	}
	cands := append([]labVID(nil), p.gRun(p.sLab[bestS])...)
	for _, cand := range cands {
		gv := cand.vid
		if !p.compatible(bestS, gv) {
			continue
		}
		snap := p.save()
		p.rep.Guesses++
		p.match(bestS, gv)
		if p.solve(depth + 1) {
			return true
		}
		p.rep.Backtracks++
		p.restore(snap)
	}
	return false
}

// snapshot captures the candidate-local state for backtracking.
type snapshot struct {
	sLab    []label.Value
	sSafe   []bool
	sMatch  []label.VID
	touched []label.VID
	gLab    []label.Value
	gSafe   []bool
	gMatch  []label.VID
	safeLen int
	matched int
}

func (p *phase2) save() *snapshot {
	sn := &snapshot{
		sLab:    append([]label.Value(nil), p.sLab...),
		sSafe:   append([]bool(nil), p.sSafe...),
		sMatch:  append([]label.VID(nil), p.sMatch...),
		touched: append([]label.VID(nil), p.touched...),
		safeLen: len(p.gSafeList),
		matched: p.matched,
	}
	for _, v := range sn.touched {
		sn.gLab = append(sn.gLab, p.gLab[v])
		sn.gSafe = append(sn.gSafe, p.gSafe[v])
		sn.gMatch = append(sn.gMatch, p.gMatch[v])
	}
	return sn
}

func (p *phase2) restore(sn *snapshot) {
	copy(p.sLab, sn.sLab)
	copy(p.sSafe, sn.sSafe)
	copy(p.sMatch, sn.sMatch)
	for _, v := range p.touched {
		p.gLab[v] = 0
		p.gSafe[v] = false
		p.gMatch[v] = unmatched
		p.inTouched[v] = false
	}
	p.touched = p.touched[:0]
	for i, v := range sn.touched {
		p.inTouched[v] = true
		p.touched = append(p.touched, v)
		p.gLab[v] = sn.gLab[i]
		p.gSafe[v] = sn.gSafe[i]
		p.gMatch[v] = sn.gMatch[i]
	}
	p.gSafeList = p.gSafeList[:sn.safeLen]
	p.matched = sn.matched
}

func (p *phase2) buildInstance() *Instance {
	inst := &Instance{
		DevMap: make(map[*graph.Device]*graph.Device, p.pat.s.NumDevices()),
		NetMap: make(map[*graph.Net]*graph.Net, p.pat.s.NumNets()),
	}
	for _, d := range p.pat.s.Devices {
		inst.DevMap[d] = p.gSpace.Device(p.sMatch[p.sSpace.DevVID(d)])
	}
	for _, n := range p.pat.s.Nets {
		inst.NetMap[n] = p.gSpace.Net(p.sMatch[p.sSpace.NetVID(n)])
	}
	return inst
}

// verifyMapping applies the production verifyMapping rules over gSpace
// vids.
func (p *phase2) verifyMapping() bool {
	p.markID++
	for _, d := range p.pat.s.Devices {
		gv := p.sMatch[p.sSpace.DevVID(d)]
		if gv == unmatched || p.mark[gv] == p.markID {
			return false
		}
		p.mark[gv] = p.markID
	}
	for _, n := range p.pat.s.Nets {
		gv := p.sMatch[p.sSpace.NetVID(n)]
		if gv == unmatched || p.mark[gv] == p.markID {
			return false
		}
		p.mark[gv] = p.markID
	}
	for _, d := range p.pat.s.Devices {
		gd := p.gSpace.Device(p.sMatch[p.sSpace.DevVID(d)])
		if len(gd.Pins) != len(d.Pins) {
			return false
		}
		if gd.Type != d.Type && d.Type != graph.WildcardType {
			return false
		}
		if !p.pinsAgree(d, gd) {
			return false
		}
	}
	for _, n := range p.pat.s.Nets {
		gnet := p.gSpace.Net(p.sMatch[p.sSpace.NetVID(n)])
		switch {
		case p.pat.global[n.Index]:
			if gnet.Name != n.Name {
				return false
			}
		case n.Port:
			if gnet.Degree() < n.Degree() {
				return false
			}
		default:
			if gnet.Degree() != n.Degree() {
				return false
			}
		}
	}
	return true
}

func (p *phase2) pinsAgree(d, gd *graph.Device) bool {
	var sPins, gPins []uint64
	for _, pin := range d.Pins {
		img := p.sMatch[p.sSpace.NetVID(pin.Net)]
		if img == unmatched {
			return false
		}
		sPins = append(sPins, uint64(pin.Class)<<48|uint64(img))
	}
	for _, pin := range gd.Pins {
		gPins = append(gPins, uint64(pin.Class)<<48|uint64(p.gSpace.NetVID(pin.Net)))
	}
	insertionSort(sPins)
	insertionSort(gPins)
	for i := range sPins {
		if sPins[i] != gPins[i] {
			return false
		}
	}
	return true
}

// findPhase2Ref is Find with Phase II on the whole-graph reference: the
// same Phase I, then refLoop, a copy of Find's candidate loop, without
// observers or cancellation.
func findPhase2Ref(m *Matcher, s *graph.Circuit) (*Result, error) {
	pat, err := m.prepare(s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	key, cv, err := newPhase1(m, pat, &res.Report).run()
	if err != nil {
		return res, err
	}
	res.Report.CVSize = len(cv)
	if len(cv) == 0 {
		return res, nil
	}
	res.Report.KeyVertex = pat.space.Name(key)
	res.Report.KeyIsDevice = pat.space.IsDevice(key)
	p2, err := newPhase2(m, pat, &res.Report)
	if err != nil {
		return res, nil // a pre-match constraint is unsatisfiable
	}
	return res, refLoop(m, res, cv, func(c label.VID) (*Instance, error) { return p2.verify(key, c), nil })
}

// refLoop is Find's candidate loop for the test-only runs: MaxInstances,
// the overlap policy (a NonOverlapping candidate is verified again after
// each instance) and signature de-duplication.  verify answers one
// verification of candidate c; its first error stops the loop.
func refLoop(m *Matcher, res *Result, cv []label.VID, verify func(c label.VID) (*Instance, error)) error {
	seen := make(map[string]bool)
	for _, c := range cv {
		if m.opts.MaxInstances > 0 && len(res.Instances) >= m.opts.MaxInstances {
			break
		}
		res.Report.Candidates++
		for {
			inst, err := verify(c)
			if err != nil {
				return err
			}
			if inst == nil {
				break
			}
			res.Report.CandidatesMatched++
			if sig, _ := inst.signature(nil); !seen[sig] {
				seen[sig] = true
				res.Instances = append(res.Instances, inst)
				res.Report.Instances++
				res.Report.MatchedDevices += len(inst.DevMap)
			}
			if m.opts.Policy != NonOverlapping {
				break
			}
			for _, gd := range inst.DevMap {
				m.consumed[gd.Index] = true
			}
			if m.opts.MaxInstances > 0 && len(res.Instances) >= m.opts.MaxInstances {
				break
			}
		}
	}
	return nil
}

// diffTraceTables runs Phase I once, then verifies every candidate on the
// region engine and on the whole-graph reference side by side with Table-1
// recording on, in Find's candidate order and overlap policy.  Before each
// reference verification the reference's unique-label stream is moved to
// where the region engine's stood, so label values are comparable even
// after the region engine refuted a candidate without drawing (its ball
// could not hold the pattern).  It returns how many candidate tables were
// compared, or the first disagreement:
//
//   - a candidate the region engine seeds must get the same verdict, pass
//     count and pattern rows from both engines;
//   - every main-graph row the region table shows must carry the same
//     label value, safe bit and matched bit in the reference table;
//   - a row only the reference shows must lie outside the candidate's
//     ball;
//   - a candidate the region engine refutes before seeding must be
//     refuted by the reference too.
func diffTraceTables(m *Matcher, s *graph.Circuit) (int, error) {
	m.opts.TraceTable = io.Discard
	pat, err := m.prepare(s)
	if err != nil {
		return 0, err
	}
	var rep stats.Report
	key, cv, err := newPhase1(m, pat, &rep).run()
	if err != nil {
		return 0, err
	}
	if len(cv) == 0 {
		return 0, fmt.Errorf("empty candidate vector")
	}
	reg, regErr := newP2Region(m, pat, key, &stats.Report{})
	ref, refErr := newPhase2(m, pat, &stats.Report{})
	if regErr != nil || refErr != nil {
		return 0, fmt.Errorf("engine construction: region %v, reference %v", regErr, refErr)
	}
	defer reg.close()
	tables := 0
	for _, c := range cv {
		for {
			name := m.gSpace.Name(c)
			reg.table, ref.table = nil, nil
			draws := reg.uniq.Draws()
			ri := reg.verify(key, c)
			ref.uniq = label.NewUniqueSource(m.opts.Seed)
			ref.uniq.Skip(draws)
			fi := ref.verify(key, c)
			if (ri == nil) != (fi == nil) || (ri != nil && ri.String() != fi.String()) {
				return tables, fmt.Errorf("candidate %s: region found %v, reference %v", name, ri, fi)
			}
			if reg.table == nil {
				if fi != nil {
					return tables, fmt.Errorf("candidate %s: region refuted it unseeded, reference matched", name)
				}
			} else {
				if ref.table == nil {
					return tables, fmt.Errorf("candidate %s: region recorded a table, reference none", name)
				}
				if err := diffTables(reg, reg.table, ref.table); err != nil {
					return tables, fmt.Errorf("candidate %s: %v", name, err)
				}
				tables++
			}
			if ri == nil || m.opts.Policy != NonOverlapping {
				break
			}
			for _, gd := range ri.DevMap {
				m.consumed[gd.Index] = true
			}
		}
	}
	return tables, nil
}

// diffTables compares one candidate's region and reference tables; reg's
// current ball is the candidate's.
func diffTables(reg *p2region, rt, ft *tableTracer) error {
	if len(rt.passes) != len(ft.passes) {
		return fmt.Errorf("region ran %d passes, reference %d", len(rt.passes), len(ft.passes))
	}
	for i := range rt.passes {
		r, f := &rt.passes[i], &ft.passes[i]
		for v := range r.sLab {
			if r.sLab[v] != f.sLab[v] || r.sSafe[v] != f.sSafe[v] || r.sMatch[v] != f.sMatch[v] {
				return fmt.Errorf("pass %d: pattern row %s differs", i+1, reg.sSpace.Name(label.VID(v)))
			}
		}
		for v, c := range r.g {
			if fc, ok := f.g[v]; !ok || fc != c {
				return fmt.Errorf("pass %d: main row %s is %+v in the region table, %+v (present %v) in the reference",
					i+1, reg.gSpace.Name(v), c, fc, ok)
			}
		}
		for v := range f.g {
			if _, ok := r.g[v]; !ok && reg.local[v] >= 0 {
				return fmt.Errorf("pass %d: main row %s lies inside the ball but only the reference labeled it",
					i+1, reg.gSpace.Name(v))
			}
		}
	}
	return nil
}

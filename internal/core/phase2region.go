package core

import (
	"fmt"
	"strconv"

	"subgemini/internal/csr"
	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/obs"
	"subgemini/internal/stats"
)

// p2region is the Phase II engine (paper §IV).  Per candidate c it first
// runs the admit filter (see admit), then extracts the ball of main-graph
// vertices within the pattern's key-vertex eccentricity r of c (eccFrom)
// and runs the whole relabel / partition / solve / verify machinery over
// dense region-local ids.  The localization is sound: an instance whose
// key image is c maps every pattern vertex along a non-fixed pattern path
// of length <= r from the key, and the image of that path is a same-length
// path from c through non-fixed, non-consumed main-graph vertices, so
// every possible image lies inside the ball.
// Pre-matched fixed vertices (globals and bind targets) are seeded at the
// head of every ball so their labels stay visible to relabeling even though
// no label ever spreads through them.
//
// The payoff is per-candidate work bounded by the region, not the circuit:
// partition scans, guess snapshots, and resets all cost O(|ball|), the CSR
// edge walk replaces per-edge class hashing with a precomputed multiplier,
// and a candidate whose ball cannot hold the pattern is rejected before any
// relabeling.  The whole-graph formulation of the same loop lives in the
// tests (phase2ref_test.go) as the differential reference
// (TestPhase2Differential, TestTraceTableMatchesReference).
type p2region struct {
	m   *Matcher
	pat *pattern
	rep *stats.Report

	sSpace, gSpace *label.Space
	g              *csr.Graph
	uniq           *label.UniqueSource
	radius         int

	// Flat pattern-side arrays for compatible() and relabelS, built once
	// per engine.  The main side reads the CSR view: type labels from
	// g.DevType, pin counts and net degrees as row lengths.  Comparing type
	// labels stands in for a type-string comparison; a hash collision can
	// only admit a candidate that verifyMapping, which compares the
	// strings, then refutes.
	sPins, sNetDeg []int32
	sWild, sPort   []bool
	sDevLab        []label.Value

	// Pattern-side state: match entries hold region-local ids (unmatchedL
	// when unmatched).
	sInitLab   []label.Value
	sInitSafe  []bool
	sInitMatch []int32
	sLab       []label.Value
	sSafe      []bool
	sMatch     []int32
	fixedS     []bool

	// Fixed main-graph vertices (pre-matched globals and bind targets),
	// seeded at the head of every ball in this order so their local ids —
	// and therefore sInitMatch — are stable across candidates.
	fixedGvid []int32
	fixedLab  []label.Value
	fixedSvid []label.VID

	// Admit tables (see admit), built once per engine from the BFS that
	// gives the radius.  For pattern vertex u, aEdges[aStart[u]:aFwd[u]]
	// are its pins on fixed nets as (fixed main vid, class multiplier), and
	// aEdges[aFwd[u]:aStart[u+1]] its forward edges to the next BFS level
	// as (pattern vid, class multiplier).  aPoll counts walk visits down
	// to the next Options.Cancel poll, across candidates.
	aStart, aFwd []int32
	aEdges       []admitEdge
	aPoll        int

	// The region-side state (see rscratch): the O(|G|) translation
	// arrays, the current candidate's ball and its region-local arrays,
	// and the recycled guess state.  It is a copy of *scr, which came from
	// the view's pool; close copies it back and returns scr to the pool.
	rscratch
	scr *rscratch

	ballDevs  int // devices in the current ball
	matched   int
	snapDepth int

	// Pattern-side scratch for simultaneous relabeling and partitioning.
	sPendV  []label.VID
	sPendL  []label.Value
	sPairs  []labVID
	sLabSet []label.Value

	// table records the last seeded candidate's passes for the Table-1
	// rendering (Options.TraceTable); nil when no table is wanted.
	table *tableTracer

	// trace, when non-nil, is the scope under the run's phase2 span that
	// receives one candidate span per verifyCandidate; set only under a
	// trace (obs.NewTrace).
	trace *obs.Scope

	cancelErr error
}

// unmatched marks an unmatched entry in lMatch, which holds pattern vids.
const unmatched label.VID = -1

// unmatchedL marks an unmatched entry in the region-local match arrays.
const unmatchedL int32 = -1

// p2CancelStride is how many solve passes run between Options.Cancel polls.
// A pass does at least O(pattern) work, so the stride bounds the work
// between polls without putting the callback on the per-pass hot path.
const p2CancelStride = 32

// guessDepthLimit bounds the guess recursion.  The bound is a safety valve:
// circuits in practice need a handful of nested guesses at most.  A guess
// refused at the bound abandons a branch unexplored, so each refusal counts
// in Report.GuessLimitHits.  Variable for tests.
var guessDepthLimit = 64

// rCancelBlock is how many ball vertices a region BFS expands, or the admit
// walk visits, between Options.Cancel polls, so even extracting one huge
// region from a high-fanout circuit honors a deadline.  Variable for tests.
var rCancelBlock = 4096

// admitDepth bounds the admit walk (see admit).  On random logic, depth 2
// rejects every false INV candidate but few false NAND2, NOR2 and NAND3
// ones; depth 3 rejects all of those too.  Deeper walks reject nothing more
// on random or tiled designs, and every true candidate pays for them: on FA
// in a ripple adder, depth 4 more than doubles the walk (EXPERIMENTS.md
// § "Candidate filter").
const admitDepth = 3

// admitEdge is one admit-table entry: a pattern vid (forward edge) or a
// fixed main-graph vid (fixed pin), with the class multiplier of the edge,
// the value csr.Graph.Mul holds for the edge's image.
type admitEdge struct {
	v   int32
	mul uint64
}

// labVID is a pattern-side partition pair: a label and the vertex carrying
// it.
type labVID struct {
	lab label.Value
	vid label.VID
}

// labLocal is the region-side partition pair: a label, the local id of the
// vertex carrying it, and that vertex's global vid.  Pairs sort by (label,
// global vid) — see sortLocalPairs — so partition runs, and therefore the
// guess enumeration order and the first instance found at a candidate, do
// not depend on the BFS order that assigned the local ids.  Carrying the
// gvid in the pair (it packs into the struct's padding) keeps the sort's
// tiebreak a field read instead of a ball indirection.
type labLocal struct {
	lab    label.Value
	lv, gv int32
}

func newP2Region(m *Matcher, pat *pattern, key label.VID, rep *stats.Report) (*p2region, error) {
	dist := pat.distFrom(key)
	p := &p2region{
		m: m, pat: pat, rep: rep,
		sSpace: pat.space,
		gSpace: m.gSpace,
		g:      m.csrView(),
		uniq:   label.NewUniqueSource(m.opts.Seed),
		radius: eccFrom(dist),
	}
	p.aPoll = rCancelBlock
	rep.RegionRadius = p.radius
	sn := p.sSpace.Size()
	p.sInitLab = make([]label.Value, sn)
	p.sInitSafe = make([]bool, sn)
	p.sInitMatch = make([]int32, sn)
	p.sLab = make([]label.Value, sn)
	p.sSafe = make([]bool, sn)
	p.sMatch = make([]int32, sn)
	p.fixedS = make([]bool, sn)
	for i := range p.sInitMatch {
		p.sInitMatch[i] = unmatchedL
	}
	p.sPins = make([]int32, sn)
	p.sNetDeg = make([]int32, sn)
	p.sWild = make([]bool, sn)
	p.sPort = make([]bool, sn)
	p.sDevLab = make([]label.Value, sn)
	for v := 0; v < sn; v++ {
		vid := label.VID(v)
		if p.sSpace.IsDevice(vid) {
			d := p.sSpace.Device(vid)
			p.sPins[v] = int32(len(d.Pins))
			p.sWild[v] = d.Type == graph.WildcardType
			p.sDevLab[v] = m.typeLabel(d.Type)
		} else {
			n := p.sSpace.Net(vid)
			p.sNetDeg[v] = int32(n.Degree())
			p.sPort[v] = n.Port
		}
	}
	p.scr = getRegion(p.g.Scratch, p.gSpace.Size())
	p.rscratch = *p.scr
	if err := p.initPrematch(); err != nil {
		p.close()
		return nil, err
	}
	p.initAdmit(dist)
	return p, nil
}

// initAdmit builds the admit tables from the key's BFS distances: per
// device, its pins on fixed nets (after initPrematch, which resolves their
// images); per vertex, its edges to neighbours one level further from the
// key.  Every pattern edge lands in exactly one list — a fixed pin, or a
// forward edge of whichever endpoint is nearer the key, since the pattern
// is bipartite — so the tables hold one entry per pin.
func (p *p2region) initAdmit(dist []int32) {
	sn := p.sSpace.Size()
	pins := 0
	for _, d := range p.pat.s.Devices {
		pins += len(d.Pins)
	}
	p.aStart = make([]int32, sn+1)
	p.aFwd = make([]int32, sn)
	p.aEdges = make([]admitEdge, 0, pins)
	fwd := func(u, v label.VID, class graph.TermClass) {
		if dist[u] >= 0 && dist[v] == dist[u]+1 {
			p.aEdges = append(p.aEdges, admitEdge{int32(v), label.ClassMul(class)})
		}
	}
	for u := 0; u < sn; u++ {
		vid := label.VID(u)
		p.aStart[u] = int32(len(p.aEdges))
		if !p.sSpace.IsDevice(vid) {
			p.aFwd[u] = p.aStart[u]
			for _, conn := range p.sSpace.Net(vid).Conns {
				fwd(vid, p.sSpace.DevVID(conn.Dev), conn.Dev.Pins[conn.Pin].Class)
			}
			continue
		}
		for _, pin := range p.sSpace.Device(vid).Pins {
			nv := p.sSpace.NetVID(pin.Net)
			for i, sv := range p.fixedSvid {
				if sv == nv {
					p.aEdges = append(p.aEdges, admitEdge{p.fixedGvid[i], label.ClassMul(pin.Class)})
				}
			}
		}
		p.aFwd[u] = int32(len(p.aEdges))
		for _, pin := range p.sSpace.Device(vid).Pins {
			fwd(vid, p.sSpace.NetVID(pin.Net), pin.Class)
		}
	}
	p.aStart[sn] = int32(len(p.aEdges))
}

// initPrematch pre-matches global nets by name (paper §V.A) and bound
// ports to their targets, recording the fixed gvids, their labels, and
// their pattern counterparts for per-ball seeding.  A pattern global or
// bind target with no counterpart in the main graph means no instance can
// exist.  The iteration order over pat.s.Nets fixes the seeds' local ids.
func (p *p2region) initPrematch() error {
	m, pat := p.m, p.pat
	prematch := func(n *graph.Net, gn *graph.Net, lab label.Value) error {
		sv, gv := p.sSpace.NetVID(n), p.gSpace.NetVID(gn)
		for i, prev := range p.fixedGvid {
			if prev == int32(gv) {
				// Two pre-matched pattern nets demand the same image; net
				// maps are injective, so no instance can satisfy this.
				return fmt.Errorf("core: net %q would be the image of two pattern nets (%s and %s)",
					gn.Name, p.sSpace.Name(p.fixedSvid[i]), n.Name)
			}
		}
		lv := int32(len(p.fixedGvid))
		p.sInitLab[sv] = lab
		p.sInitSafe[sv] = true
		p.sInitMatch[sv] = lv
		p.fixedS[sv] = true
		p.fixedGvid = append(p.fixedGvid, int32(gv))
		p.fixedLab = append(p.fixedLab, lab)
		p.fixedSvid = append(p.fixedSvid, sv)
		return nil
	}
	for _, n := range pat.s.Nets {
		switch {
		case pat.global[n.Index]:
			// The run's global set is applied by name to both circuits, so
			// a same-named main net is in it too.
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

// close returns the scratch to the view's pool, restoring the clean-state
// invariant: local entries back to -1 (O(|last ball|)), markID carried
// forward, grown capacities kept.
func (p *p2region) close() {
	for _, gv := range p.ball {
		p.local[gv] = -1
	}
	p.ball, p.lSafeList, p.lTouched = p.ball[:0], p.lSafeList[:0], p.lTouched[:0]
	p.lPendV, p.lPendL, p.gPairs = p.lPendV[:0], p.lPendL[:0], p.gPairs[:0]
	*p.scr = p.rscratch
	p.g.Scratch.Put(p.scr)
}

// cancelled reports the Options.Cancel error latched inside the solve
// recursion or the ball extraction, if any fired.
func (p *p2region) cancelled() error { return p.cancelErr }

// extract builds the radius-r ball around candidate c: the fixed seeds
// first (stable local ids), then a level-by-level BFS from c over the CSR
// view that never enters fixed or consumed vertices — exactly the vertices
// an instance rooted at c could touch.  It returns false when the run was
// cancelled mid-extraction.  The previous candidate's ball is dismantled
// here, so local is consistent at every return.
func (p *p2region) extract(c label.VID) bool {
	for _, gv := range p.ball {
		p.local[gv] = -1
	}
	p.ball = p.ball[:0]
	for i, gv := range p.fixedGvid {
		p.local[gv] = int32(i)
		p.ball = append(p.ball, gv)
	}
	head := len(p.ball) // c's own position: BFS never expands the seeds
	p.local[c] = int32(head)
	p.ball = append(p.ball, int32(c))
	p.ballDevs = 0
	if p.gSpace.IsDevice(c) {
		p.ballDevs = 1
	}
	g := p.g
	nd := int32(g.NumDevs)
	depth, levelEnd, expanded := 0, len(p.ball), 0
	for head < len(p.ball) && depth < p.radius {
		gv := p.ball[head]
		head++
		for e := g.Start[gv]; e < g.Start[gv+1]; e++ {
			nv := g.Adj[e]
			if p.local[nv] >= 0 {
				continue
			}
			if nv < nd {
				if p.m.consumed[nv] {
					continue
				}
				p.ballDevs++
			}
			p.local[nv] = int32(len(p.ball))
			p.ball = append(p.ball, nv)
		}
		expanded++
		if expanded%rCancelBlock == 0 && p.m.opts.Cancel != nil {
			if err := p.m.opts.Cancel(); err != nil {
				p.cancelErr = err
				return false
			}
		}
		if head == levelEnd {
			depth++
			levelEnd = len(p.ball)
		}
	}
	if n := len(p.ball); n > p.rep.RegionMaxSize {
		p.rep.RegionMaxSize = n
	}
	p.rep.RegionBallSum += len(p.ball)
	return true
}

// reset prepares the per-candidate state over the current ball: pattern
// arrays from their templates, region-local arrays zeroed with the fixed
// seeds re-established.  O(|ball|).
func (p *p2region) reset() {
	copy(p.sLab, p.sInitLab)
	copy(p.sSafe, p.sInitSafe)
	copy(p.sMatch, p.sInitMatch)
	n := len(p.ball)
	p.lLab = sizeLabels(p.lLab, n)
	p.lSafe = sizeBools(p.lSafe, n)
	p.lFixed = sizeBools(p.lFixed, n)
	p.lMatch = sizeVIDs(p.lMatch, n)
	p.lInT = sizeBools(p.lInT, n)
	clear(p.lLab)
	clear(p.lSafe)
	clear(p.lFixed)
	clear(p.lInT)
	p.lTouched = p.lTouched[:0]
	for i := range p.lMatch {
		p.lMatch[i] = unmatched
	}
	for i := range p.fixedGvid {
		p.lLab[i] = p.fixedLab[i]
		p.lSafe[i] = true
		p.lFixed[i] = true
		p.lMatch[i] = p.fixedSvid[i]
	}
	p.lSafeList = p.lSafeList[:0]
	p.matched = 0
}

func sizeLabels(s []label.Value, n int) []label.Value {
	if cap(s) < n {
		return make([]label.Value, n)
	}
	return s[:n]
}

func sizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func sizeVIDs(s []label.VID, n int) []label.VID {
	if cap(s) < n {
		return make([]label.VID, n)
	}
	return s[:n]
}

// consumedDev reports whether a main-graph vertex is a device already
// claimed by a previous instance under the NonOverlapping policy.
func (p *p2region) consumedDev(v label.VID) bool {
	return p.gSpace.IsDevice(v) && p.m.consumed[v]
}

// touchL registers a label write on a region-local vertex.
func (p *p2region) touchL(lv int32) {
	if !p.lInT[lv] {
		p.lInT[lv] = true
		p.lTouched = append(p.lTouched, lv)
	}
}

// match records pattern vertex sv ↔ region-local vertex lv as matched: both
// receive the same fresh unique label (the paper's "random, unique label"),
// become safe, and are frozen.
func (p *p2region) match(sv label.VID, lv int32) {
	lab := p.uniq.Next()
	p.sLab[sv] = lab
	p.sSafe[sv] = true
	p.sMatch[sv] = lv
	p.touchL(lv)
	p.lLab[lv] = lab
	p.lSafe[lv] = true
	p.lMatch[lv] = sv
	if !p.lFixed[lv] {
		p.lSafeList = append(p.lSafeList, lv)
	}
	p.matched++
}

// verifyCandidate postulates c = image(key) and runs the Phase II search.
// It returns a verified instance, or nil when c is a false candidate.  Under
// a trace, every examined candidate records one obs.KindCandidate span
// carrying its outcome, cost and ball size; the untraced path pays nothing.
func (p *p2region) verifyCandidate(key, c label.VID) *Instance {
	tr := p.trace
	if tr == nil {
		return p.verify(key, c)
	}
	ref := tr.Begin(obs.KindCandidate, p.gSpace.Name(c))
	passes0, guesses0, backtracks0 := p.rep.Phase2Passes, p.rep.Guesses, p.rep.Backtracks
	balls0, limits0 := p.rep.RegionBallSum, p.rep.GuessLimitHits
	inst := p.verify(key, c)
	tr.End(ref)
	tr.Attr(ref, "matched", strconv.FormatBool(inst != nil))
	tr.AttrInt(ref, "passes", int64(p.rep.Phase2Passes-passes0))
	tr.AttrInt(ref, "guesses", int64(p.rep.Guesses-guesses0))
	tr.AttrInt(ref, "backtracks", int64(p.rep.Backtracks-backtracks0))
	tr.Attr(ref, "guess_limited", strconv.FormatBool(p.rep.GuessLimitHits > limits0))
	tr.AttrInt(ref, "ball", int64(p.rep.RegionBallSum-balls0))
	return inst
}

// verify is the untraced body of verifyCandidate: the admit filter, then
// the search.  A candidate admit rejects draws no unique label.
func (p *p2region) verify(key, c label.VID) *Instance {
	// A fixed vertex is pre-matched by name; it can never be the image of
	// the (never-fixed) key.  Phase I keeps fixed vertices out of the
	// candidate vector, so that guard is defensive.
	if p.consumedDev(c) || p.fixedMain(int32(c)) {
		return nil
	}
	if !p.admit(key, c) {
		if p.cancelErr == nil {
			p.rep.Filtered++
		}
		return nil
	}
	return p.search(key, c)
}

// fixedMain reports whether main-graph vertex v is a pre-matched global or
// bind target.  There are a handful at most.
func (p *p2region) fixedMain(v int32) bool {
	for _, gv := range p.fixedGvid {
		if gv == v {
			return true
		}
	}
	return false
}

// admit is an exact neighbourhood filter run before a candidate's ball is
// extracted.  To depth min(r, admitDepth) it walks the key's BFS levels
// outwards from c and requires that c hosts the key and that every host
// has, for each forward edge of its pattern vertex, a CSR neighbour that
// hosts the edge's far end: reached over an edge of the same class
// multiplier, neither fixed, consumed, nor the host it was entered from.
// Hosting means passing compatible (type and pin count, net degree) and
// carrying the pattern vertex's fixed pins.  Each forward edge is searched
// on its own, and the first neighbour that hosts ends its search.
//
// It is sound: the images of any instance rooted at c satisfy every
// condition.  verifyMapping requires each pattern edge's image to be an
// edge of the same terminal class, and each fixed pin's image to be a pin
// of that class on the fixed net's pre-matched image; compatible holds for
// every image; images are injective, so an image is never its BFS parent's
// image; and balls hold no consumed device, and their fixed seeds are
// pre-matched to the fixed pattern nets.  A multiplier collision between
// classes can only admit more.  So a rejected
// candidate has no instance, and admitted ones are still verified in full.
func (p *p2region) admit(key, c label.VID) bool {
	return p.admitAt(int32(key), int32(c), -1, min(p.radius, admitDepth))
}

// admitAt reports whether main-graph vertex h hosts pattern vertex u when
// entered from host from (-1 at the root), walking left more levels.
func (p *p2region) admitAt(u, h, from int32, left int) bool {
	if p.cancelErr != nil {
		return false
	}
	// A countdown rather than extract's modulo: the walk visits several
	// vertices per candidate, and the division showed in its profile.
	if p.aPoll--; p.aPoll == 0 {
		p.aPoll = rCancelBlock
		if p.m.opts.Cancel != nil {
			if err := p.m.opts.Cancel(); err != nil {
				p.cancelErr = err
				return false
			}
		}
	}
	if !p.compatible(label.VID(u), label.VID(h)) {
		return false
	}
	g := p.g
	lo, hi := g.Start[h], g.Start[h+1]
	for _, fe := range p.aEdges[p.aStart[u]:p.aFwd[u]] {
		e := lo
		for e < hi && (g.Adj[e] != fe.v || g.Mul[e] != fe.mul) {
			e++
		}
		if e == hi {
			return false
		}
	}
	if left == 0 {
		return true
	}
	nd := int32(g.NumDevs)
	for _, fe := range p.aEdges[p.aFwd[u]:p.aStart[u+1]] {
		found := false
		for e := lo; e < hi && !found; e++ {
			nh := g.Adj[e]
			if g.Mul[e] != fe.mul || nh == from {
				continue
			}
			if nh < nd && p.m.consumed[nh] || nh >= nd && p.fixedMain(nh) {
				continue
			}
			found = p.admitAt(fe.v, nh, h, left-1)
		}
		if !found {
			return false
		}
	}
	return true
}

// search is verify past the filter: it extracts c's ball, seeds the key
// pair and solves.
func (p *p2region) search(key, c label.VID) *Instance {
	if !p.extract(c) {
		return nil // cancelled mid-extraction
	}
	// Feasibility over the ball: an instance needs every pattern device and
	// p.pat.required non-fixed vertices inside the region.  A candidate in
	// a sparse corner fails here for the cost of its BFS alone.
	if p.ballDevs < p.pat.s.NumDevices() ||
		len(p.ball)-len(p.fixedGvid) < p.pat.required {
		return nil
	}
	p.reset()
	if p.m.opts.TraceTable != nil {
		p.table = newTableTracer(p.sSpace, p.gSpace, p.gSpace.Name(c))
	}
	p.match(key, p.local[c])
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

// snapshotTable records the state after the seed match or one solve pass
// for the Table-1 rendering.  Main-graph rows are the labeled vertices of
// lTouched mapped through the ball; the fixed seeds never enter lTouched,
// so, as in the paper's table, pre-matched globals get no row.
func (p *p2region) snapshotTable() {
	sMatched := make([]bool, len(p.sMatch))
	for i, lv := range p.sMatch {
		sMatched[i] = lv != unmatchedL
	}
	g := p.table.pass(p.sLab, p.sSafe, sMatched)
	for _, lv := range p.lTouched {
		if p.lLab[lv] != 0 {
			g[label.VID(p.ball[lv])] = gCell{p.lLab[lv], p.lSafe[lv], p.lMatch[lv] != unmatched}
		}
	}
}

// solve runs the relabel / check / mark-safe / match loop over the region
// until every pattern vertex is matched, guessing on stalls (paper §IV
// algorithm VerifyImage).  Options.Cancel is polled every p2CancelStride
// passes, at any recursion depth, so even a single pathological candidate
// (deep symmetric guessing, the exponential-tail case) honors its deadline;
// a cancelled solve returns false with p.cancelErr set.
func (p *p2region) solve(depth int) bool {
	for {
		if p.cancelErr != nil {
			return false
		}
		p.rep.Phase2Passes++
		if p.rep.Phase2Passes%p2CancelStride == 0 && p.m.opts.Cancel != nil {
			if err := p.m.opts.Cancel(); err != nil {
				p.cancelErr = err
				return false
			}
		}
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
// vertex adjacent to at least one safe non-fixed vertex, accumulating
// contributions from safe neighbors only (Label Invariant 2): the pattern
// by a full scan (it is small), the region by walking the CSR edges of the
// safe frontier.  The region accumulation acc += Mul[e]*lab is
// bit-identical to the pattern side's label.Combine fold, with the
// per-edge class hash replaced by the precomputed multiplier.
func (p *p2region) relabelRound() {
	p.sPendV = p.sPendV[:0]
	p.sPendL = p.sPendL[:0]
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] != unmatchedL || p.fixedS[vid] {
			continue
		}
		newLab, triggered := p.relabelS(vid)
		if triggered {
			p.sPendV = append(p.sPendV, vid)
			p.sPendL = append(p.sPendL, newLab)
		}
	}
	p.markID++
	p.lPendV = p.lPendV[:0]
	p.lPendL = p.lPendL[:0]
	g := p.g
	for _, sv := range p.lSafeList {
		gv := p.ball[sv]
		for e := g.Start[gv]; e < g.Start[gv+1]; e++ {
			ln := p.local[g.Adj[e]]
			if ln < 0 || p.mark[ln] == p.markID {
				continue
			}
			p.mark[ln] = p.markID
			if p.lMatch[ln] != unmatched || p.lFixed[ln] {
				continue
			}
			newLab, triggered := p.relabelL(ln)
			if triggered {
				p.lPendV = append(p.lPendV, ln)
				p.lPendL = append(p.lPendL, newLab)
			}
		}
	}
	for i, v := range p.sPendV {
		p.sLab[v] = p.sPendL[i]
	}
	for i, v := range p.lPendV {
		p.touchL(v)
		p.lLab[v] = p.lPendL[i]
	}
}

// relabelS computes the would-be new label of pattern vertex v and whether
// it has a safe non-fixed neighbor (the trigger condition).  A device's
// first label folds in its type; image devices share types, so the fold is
// consistent across the two graphs.
func (p *p2region) relabelS(v label.VID) (label.Value, bool) {
	acc := p.sLab[v]
	triggered := false
	if p.sSpace.IsDevice(v) {
		d := p.sSpace.Device(v)
		if acc == 0 && !p.pat.wildcards {
			acc = p.sDevLab[v]
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

// relabelL is relabelS on the region side; the two must apply the exact
// same rule for Invariant 2 to hold.  Devices and nets share one CSR edge
// loop; devices are never fixed, so the trigger rule !lFixed[ln] matches
// relabelS's per-kind rules.
func (p *p2region) relabelL(lv int32) (label.Value, bool) {
	acc := p.lLab[lv]
	gv := p.ball[lv]
	g := p.g
	if int(gv) < g.NumDevs && acc == 0 && !p.pat.wildcards {
		acc = g.DevType[gv]
	}
	triggered := false
	for e := g.Start[gv]; e < g.Start[gv+1]; e++ {
		ln := p.local[g.Adj[e]]
		if ln < 0 || !p.lSafe[ln] {
			continue
		}
		acc += label.Value(g.Mul[e] * uint64(p.lLab[ln]))
		if !p.lFixed[ln] {
			triggered = true
		}
	}
	return acc, triggered
}

// partitionRound groups unmatched labeled vertices by label on both sides,
// fails the candidate when a region partition is smaller than the
// same-label pattern partition, marks equal-sized partitions safe, and
// matches singleton pairs.  It reports whether anything progressed.
//
// Partitions are materialized as label-sorted pair lists walked in
// lockstep, which is allocation-free across passes and makes the iteration
// order (and therefore the whole run) deterministic.  Equal-sized
// partitions are safe (paper §IV): assuming an instance exists at this
// candidate, the region partition contains only images.  A wrong
// assumption at a false candidate is caught later by a consistency failure
// or by verifyMapping.
func (p *p2region) partitionRound() (progress, ok bool) {
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
				if v := p.gPairs[k].lv; !p.lSafe[v] {
					p.lSafe[v] = true
					p.lSafeList = append(p.lSafeList, v)
					progress = true
				}
			}
			if cs == 1 {
				sv, lv := p.sPairs[si].vid, p.gPairs[gStart].lv
				if !p.compatible(sv, label.VID(p.ball[lv])) {
					// A structural impossibility surfaced by a label
					// collision: treat as a failed candidate.
					return false, false
				}
				p.match(sv, lv)
				progress = true
			}
		}
		si = sEnd
	}
	return progress, true
}

// collectPairs rebuilds the sorted (label, vertex) pair lists.  The region
// side iterates the touched list — every ever-labeled vertex is in it —
// keeps only pairs whose label also occurs on the pattern side, and sorts
// with the global-vid tiebreak so run order follows vertex order.
//
// The pattern-label filter is sound because no consumer ever looks at a
// g-only run: the partition merge walk skips past labels absent from
// sPairs, and gRun is only queried with the label of a live (unmatched,
// labeled) pattern vertex — exactly the sPairs membership predicate at the
// time of the last collect.  Dropping the dead pairs shrinks the per-pass
// sort from O(|ball|) to O(|pattern|)-ish.
func (p *p2region) collectPairs() {
	p.sPairs = p.sPairs[:0]
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] == unmatchedL && p.sLab[vid] != 0 {
			p.sPairs = append(p.sPairs, labVID{p.sLab[vid], vid})
		}
	}
	sortPairs(p.sPairs)
	set := p.sLabSet[:0]
	for _, pr := range p.sPairs {
		if len(set) == 0 || set[len(set)-1] != pr.lab {
			set = append(set, pr.lab)
		}
	}
	p.sLabSet = set
	p.gPairs = p.gPairs[:0]
	for _, lv := range p.lTouched {
		if p.lMatch[lv] == unmatched && p.lLab[lv] != 0 && labIn(set, p.lLab[lv]) {
			p.gPairs = append(p.gPairs, labLocal{p.lLab[lv], lv, p.ball[lv]})
		}
	}
	sortLocalPairs(p.gPairs)
}

// labIn reports whether the sorted label set contains lab.  Pattern label
// sets are tiny (at most one entry per pattern vertex), so a branch-light
// binary search beats hashing.
func labIn(set []label.Value, lab label.Value) bool {
	lo, hi := 0, len(set)
	for lo < hi {
		mid := (lo + hi) / 2
		if set[mid] < lab {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(set) && set[lo] == lab
}

// sortPairs orders by label, then vid.  Pair lists are small (on the order
// of the pattern size), so a shell sort beats the allocation cost of
// sort.Slice here.
func sortPairs(a []labVID) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for j >= gap && less(v, a[j-gap]) {
				a[j] = a[j-gap]
				j -= gap
			}
			a[j] = v
		}
	}
}

func less(x, y labVID) bool {
	if x.lab != y.lab {
		return x.lab < y.lab
	}
	return x.vid < y.vid
}

// sortLocalPairs shell-sorts region pairs by (label, global vid).  Local
// ids follow BFS discovery order, not vid order, so the tiebreak goes
// through the pair's gv field to keep run order independent of the BFS;
// the comparison is written out inline because this sort runs once per
// pass per candidate.
func sortLocalPairs(a []labLocal) {
	for gap := len(a) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(a); i++ {
			v := a[i]
			j := i
			for j >= gap && (v.lab < a[j-gap].lab ||
				(v.lab == a[j-gap].lab && v.gv < a[j-gap].gv)) {
				a[j] = a[j-gap]
				j -= gap
			}
			a[j] = v
		}
	}
}

// gRun returns the gPairs slice carrying the given label.
func (p *p2region) gRun(lab label.Value) []labLocal {
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

// compatible reports whether matching sv to main-graph vertex gv is
// structurally plausible: device types and arities must agree, and net
// degrees must satisfy the image conditions (equal for internal pattern
// nets — the induced-subgraph requirement — and at least as large for
// ports).  Phase II labels carry no degree information, so checking here
// prunes false paths that would otherwise be discovered only by the final
// verification; the check is sound because every true image satisfies it
// by definition.
func (p *p2region) compatible(sv, gv label.VID) bool {
	if p.sSpace.IsDevice(sv) != p.gSpace.IsDevice(gv) {
		return false
	}
	g := p.g
	gdeg := g.Start[gv+1] - g.Start[gv] // pin count or net degree
	if p.sSpace.IsDevice(sv) {
		if p.sPins[sv] != gdeg {
			return false
		}
		return p.sWild[sv] || p.sDevLab[sv] == g.DevType[gv]
	}
	if ablateDegreeCheck {
		return true
	}
	if p.sPort[sv] {
		return gdeg >= p.sNetDeg[sv]
	}
	return gdeg == p.sNetDeg[sv]
}

// guess resolves a stall (paper Fig. 5): pick the unmatched pattern vertex
// whose label has the smallest region partition and try each member in
// turn, backtracking on failure.  The candidate list buffer is recycled by
// depth so steady-state guessing does not allocate.
func (p *p2region) guess(depth int) bool {
	if depth >= guessDepthLimit {
		p.rep.GuessLimitHits++
		return false
	}
	var bestS label.VID = -1
	bestSize := 0
	for v := 0; v < p.sSpace.Size(); v++ {
		vid := label.VID(v)
		if p.sMatch[vid] != unmatchedL || p.sLab[vid] == 0 {
			continue
		}
		size := len(p.gRun(p.sLab[vid]))
		if size == 0 {
			return false // an unmatched pattern vertex with no possible image
		}
		if bestS < 0 || size < bestSize {
			bestS, bestSize = vid, size
		}
	}
	if bestS < 0 {
		// Nothing left to guess but not everything matched: the pattern has
		// unlabeled vertices, which cannot happen for connected patterns.
		return false
	}
	for depth >= len(p.candsPool) {
		p.candsPool = append(p.candsPool, nil)
	}
	cands := append(p.candsPool[depth][:0], p.gRun(p.sLab[bestS])...)
	p.candsPool[depth] = cands
	for _, cand := range cands {
		lv := cand.lv
		if !p.compatible(bestS, label.VID(cand.gv)) {
			continue
		}
		snap := p.save()
		p.rep.Guesses++
		p.match(bestS, lv)
		if p.solve(depth + 1) {
			p.release()
			return true
		}
		p.rep.Backtracks++
		p.restore(snap)
		p.release()
		if p.cancelErr != nil {
			// The failed solve was a cancellation, not a refutation: stop
			// trying alternatives and unwind the whole recursion.
			return false
		}
	}
	return false
}

// rsnapshot captures the candidate-local state for backtracking.  Every
// slice is ball-sized, so a save costs O(|ball|) regardless of |G| — the
// whole point of localizing the guess path.
type rsnapshot struct {
	sLab    []label.Value
	sSafe   []bool
	sMatch  []int32
	lLab    []label.Value
	lSafe   []bool
	lMatch  []label.VID
	safeLen int
	matched int
}

func (p *p2region) save() *rsnapshot {
	var sn *rsnapshot
	if p.snapDepth < len(p.snapPool) {
		sn = p.snapPool[p.snapDepth]
	} else {
		sn = &rsnapshot{}
		p.snapPool = append(p.snapPool, sn)
	}
	p.snapDepth++
	sn.sLab = append(sn.sLab[:0], p.sLab...)
	sn.sSafe = append(sn.sSafe[:0], p.sSafe...)
	sn.sMatch = append(sn.sMatch[:0], p.sMatch...)
	sn.lLab = append(sn.lLab[:0], p.lLab...)
	sn.lSafe = append(sn.lSafe[:0], p.lSafe...)
	sn.lMatch = append(sn.lMatch[:0], p.lMatch...)
	sn.safeLen = len(p.lSafeList)
	sn.matched = p.matched
	return sn
}

func (p *p2region) release() { p.snapDepth-- }

func (p *p2region) restore(sn *rsnapshot) {
	copy(p.sLab, sn.sLab)
	copy(p.sSafe, sn.sSafe)
	copy(p.sMatch, sn.sMatch)
	copy(p.lLab, sn.lLab)
	copy(p.lSafe, sn.lSafe)
	copy(p.lMatch, sn.lMatch)
	p.lSafeList = p.lSafeList[:sn.safeLen]
	p.matched = sn.matched
}

// verifyMapping checks the completed match edge-by-edge (the paper's
// "verify the isomorphism mapping" step).  Labels only approximate exact
// partitions, so this check is what makes the matcher sound: it confirms
//
//   - the device and net maps are injective;
//   - every device maps to one of equal type with, per terminal class, the
//     exact multiset of image nets (source/drain interchange allowed within
//     a class, nothing else);
//   - every internal pattern net maps to a net of equal degree (induced
//     subgraph: internal nets may not connect outside the instance);
//   - every port maps to a net of at least its degree;
//   - every global maps to the identically named net, which the run's
//     global set holds by construction (Matcher.prepare).
func (p *p2region) verifyMapping() bool {
	// Injectivity over local ids (each local id names one main-graph
	// vertex, so local injectivity is global injectivity), tracked with
	// the reusable round-marker array.
	p.markID++
	for _, d := range p.pat.s.Devices {
		lv := p.sMatch[p.sSpace.DevVID(d)]
		if lv == unmatchedL || p.mark[lv] == p.markID {
			return false
		}
		p.mark[lv] = p.markID
	}
	for _, n := range p.pat.s.Nets {
		lv := p.sMatch[p.sSpace.NetVID(n)]
		if lv == unmatchedL || p.mark[lv] == p.markID {
			return false
		}
		p.mark[lv] = p.markID
	}

	// Device structure.
	for _, d := range p.pat.s.Devices {
		gd := p.gSpace.Device(label.VID(p.ball[p.sMatch[p.sSpace.DevVID(d)]]))
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

	// Net structure.
	for _, n := range p.pat.s.Nets {
		gnet := p.gSpace.Net(label.VID(p.ball[p.sMatch[p.sSpace.NetVID(n)]]))
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

// pinsAgree checks that, for every terminal class, the multiset of image
// nets of d's pins equals the multiset of nets of gd's pins.  Devices have
// a handful of pins, so a stack-allocated insertion sort avoids the
// allocation and closure cost of sort.Slice in this hot path (it runs once
// per device per verified instance).
func (p *p2region) pinsAgree(d, gd *graph.Device) bool {
	var sBuf, gBuf [16]uint64
	nPins := len(d.Pins)
	sPins, gPins := sBuf[:0], gBuf[:0]
	if nPins > len(sBuf) {
		sPins = make([]uint64, 0, nPins)
		gPins = make([]uint64, 0, nPins)
	}
	for _, pin := range d.Pins {
		lv := p.sMatch[p.sSpace.NetVID(pin.Net)]
		if lv == unmatchedL {
			return false
		}
		sPins = append(sPins, uint64(pin.Class)<<48|uint64(p.ball[lv]))
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

func insertionSort(a []uint64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// buildInstance converts the local match arrays into an Instance.
func (p *p2region) buildInstance() *Instance {
	inst := &Instance{
		DevMap: make(map[*graph.Device]*graph.Device, p.pat.s.NumDevices()),
		NetMap: make(map[*graph.Net]*graph.Net, p.pat.s.NumNets()),
	}
	for _, d := range p.pat.s.Devices {
		lv := p.sMatch[p.sSpace.DevVID(d)]
		inst.DevMap[d] = p.gSpace.Device(label.VID(p.ball[lv]))
	}
	for _, n := range p.pat.s.Nets {
		lv := p.sMatch[p.sSpace.NetVID(n)]
		inst.NetMap[n] = p.gSpace.Net(label.VID(p.ball[lv]))
	}
	return inst
}

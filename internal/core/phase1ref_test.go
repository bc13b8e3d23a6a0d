package core

import (
	"sort"

	"subgemini/internal/graph"
	"subgemini/internal/label"
	"subgemini/internal/stats"
)

// phase1Ref is the reference formulation of Phase I, written as the paper
// states it (§III, Figs. 3 and 4) rather than for speed: it walks
// Device/Net pointers, relabels into double buffers and commits them, counts
// partitions in maps, and re-scans every vertex on every pass.  The
// production engine (phase1.go, phase1csr.go) must agree with it bit for
// bit on the key vertex, the candidate vector, the pass and prune counts,
// and the early-abort verdict; TestPhase1Differential checks that, and
// BenchmarkPhase1 measures the gap.
//
// Only the initial labeling is shared with production (newPhase1 computes
// it); every pass after that is the reference's own.
type phase1Ref struct {
	m   *Matcher
	pat *pattern
	rep *stats.Report

	sSpace, gSpace *label.Space
	sLab, gLab     []label.Value
	sNew, gNew     []label.Value
	sState         []p1State
	gState         []g1State
	sCount, gCount map[label.Value]int
}

// runPhase1Ref runs the reference Phase I and returns the key vertex and
// candidate vector, filling Phase1Passes, Phase1Pruned and EarlyAbort into
// rep.  An empty candidate vector means no instance exists.
func runPhase1Ref(m *Matcher, pat *pattern, rep *stats.Report) (label.VID, []label.VID) {
	p1 := newPhase1(m, pat, &stats.Report{})
	r := &phase1Ref{
		m: m, pat: pat, rep: rep,
		sSpace: p1.sSpace, gSpace: p1.gSpace,
		sLab: p1.sLab, gLab: p1.gLab,
		sState: p1.sState, gState: p1.gState,
		sNew:   make([]label.Value, p1.sSpace.Size()),
		gNew:   make([]label.Value, p1.gSpace.Size()),
		sCount: make(map[label.Value]int),
		gCount: make(map[label.Value]int),
	}
	if !r.consistency(false) || !r.consistency(true) {
		rep.EarlyAbort = true
		return 0, nil
	}
	maxRounds := r.sSpace.Size() + 8
	prevSig := r.signature()
	for round := 0; round < maxRounds; round++ {
		rep.Phase1Passes++
		r.relabelNets()
		r.corruptNets()
		if !r.consistency(false) {
			rep.EarlyAbort = true
			return 0, nil
		}
		if r.allCorrupt(false) {
			break
		}
		r.relabelDevices()
		r.corruptDevices()
		if !r.consistency(true) {
			rep.EarlyAbort = true
			return 0, nil
		}
		if r.allCorrupt(true) {
			break
		}
		sig := r.signature()
		if sig == prevSig {
			break
		}
		prevSig = sig
	}
	return r.chooseCandidates()
}

func (r *phase1Ref) relabelNets() {
	for _, n := range r.pat.s.Nets {
		if v := r.sSpace.NetVID(n); r.sState[v] == p1Valid {
			r.sNew[v] = relabelNetFrom(n, r.sSpace, r.sLab)
		}
	}
	for _, n := range r.m.g.Nets {
		if v := r.gSpace.NetVID(n); r.gState[v] == g1Active {
			r.gNew[v] = relabelNetFrom(n, r.gSpace, r.gLab)
		}
	}
	for _, n := range r.pat.s.Nets {
		if v := r.sSpace.NetVID(n); r.sState[v] == p1Valid {
			r.sLab[v] = r.sNew[v]
		}
	}
	for _, n := range r.m.g.Nets {
		if v := r.gSpace.NetVID(n); r.gState[v] == g1Active {
			r.gLab[v] = r.gNew[v]
		}
	}
}

func (r *phase1Ref) relabelDevices() {
	for _, d := range r.pat.s.Devices {
		if v := r.sSpace.DevVID(d); r.sState[v] == p1Valid {
			r.sNew[v] = relabelDevFrom(d, r.sSpace, r.sLab)
		}
	}
	for _, d := range r.m.g.Devices {
		if v := r.gSpace.DevVID(d); r.gState[v] == g1Active {
			r.gNew[v] = relabelDevFrom(d, r.gSpace, r.gLab)
		}
	}
	for _, d := range r.pat.s.Devices {
		if v := r.sSpace.DevVID(d); r.sState[v] == p1Valid {
			r.sLab[v] = r.sNew[v]
		}
	}
	for _, d := range r.m.g.Devices {
		if v := r.gSpace.DevVID(d); r.gState[v] == g1Active {
			r.gLab[v] = r.gNew[v]
		}
	}
}

// relabelNetFrom is the Fig. 3 relabeling function of a net: its own label
// folded with the labels of its neighbors, weighted by terminal class.
func relabelNetFrom(n *graph.Net, sp *label.Space, lab []label.Value) label.Value {
	acc := lab[sp.NetVID(n)]
	for _, conn := range n.Conns {
		acc = label.Combine(acc, conn.Dev.Pins[conn.Pin].Class, lab[sp.DevVID(conn.Dev)])
	}
	return acc
}

func relabelDevFrom(d *graph.Device, sp *label.Space, lab []label.Value) label.Value {
	acc := lab[sp.DevVID(d)]
	for _, pin := range d.Pins {
		acc = label.Combine(acc, pin.Class, lab[sp.NetVID(pin.Net)])
	}
	return acc
}

func (r *phase1Ref) corruptNets() {
	for _, n := range r.pat.s.Nets {
		v := r.sSpace.NetVID(n)
		if r.sState[v] != p1Valid {
			continue
		}
		for _, conn := range n.Conns {
			if r.sState[r.sSpace.DevVID(conn.Dev)] == p1Corrupt {
				r.sState[v] = p1Corrupt
				break
			}
		}
	}
}

func (r *phase1Ref) corruptDevices() {
	for _, d := range r.pat.s.Devices {
		v := r.sSpace.DevVID(d)
		if r.sState[v] != p1Valid {
			continue
		}
		for _, pin := range d.Pins {
			if r.sState[r.sSpace.NetVID(pin.Net)] == p1Corrupt {
				r.sState[v] = p1Corrupt
				break
			}
		}
	}
}

func (r *phase1Ref) allCorrupt(devs bool) bool {
	for v := 0; v < r.sSpace.Size(); v++ {
		if r.sSpace.IsDevice(label.VID(v)) == devs && r.sState[v] == p1Valid {
			return false
		}
	}
	return true
}

// consistency counts valid pattern labels of one vertex kind, prunes the
// active main-graph vertices of that kind whose label matches no pattern
// partition, and fails when a main-graph partition is smaller than its
// pattern twin.
func (r *phase1Ref) consistency(devs bool) bool {
	clear(r.sCount)
	for v := 0; v < r.sSpace.Size(); v++ {
		if r.sSpace.IsDevice(label.VID(v)) == devs && r.sState[v] == p1Valid {
			r.sCount[r.sLab[v]]++
		}
	}
	if len(r.sCount) == 0 {
		return true
	}
	clear(r.gCount)
	for v := 0; v < r.gSpace.Size(); v++ {
		if r.gSpace.IsDevice(label.VID(v)) != devs || r.gState[v] != g1Active {
			continue
		}
		if _, ok := r.sCount[r.gLab[v]]; !ok {
			r.gState[v] = g1Pruned
			r.rep.Phase1Pruned++
		} else {
			r.gCount[r.gLab[v]]++
		}
	}
	for lab, cs := range r.sCount {
		if r.gCount[lab] < cs {
			return false
		}
	}
	return true
}

// signature encodes the pattern's valid partition structure for the
// stability guard.
func (r *phase1Ref) signature() string {
	ids := make(map[label.Value]int)
	sig := make([]byte, 0, r.sSpace.Size()*2)
	for v := 0; v < r.sSpace.Size(); v++ {
		sig = append(sig, byte(r.sState[v]))
		if r.sState[v] != p1Valid {
			continue
		}
		id, ok := ids[r.sLab[v]]
		if !ok {
			id = len(ids)
			ids[r.sLab[v]] = id
		}
		sig = append(sig, byte(id), byte(id>>8))
	}
	return string(sig)
}

// chooseCandidates picks, by full scan, the smallest active main-graph
// partition whose label also labels valid pattern vertices of the same
// kind; ties prefer smaller pattern partitions, then lower labels.  The
// first pattern vertex with the chosen label is the key vertex.
func (r *phase1Ref) chooseCandidates() (label.VID, []label.VID) {
	type part struct {
		lab    label.Value
		dev    bool
		sFirst label.VID
		sCount int
	}
	sParts := make(map[label.Value]*part)
	var order []*part
	for v := 0; v < r.sSpace.Size(); v++ {
		if r.sState[v] != p1Valid {
			continue
		}
		pp, ok := sParts[r.sLab[v]]
		if !ok {
			pp = &part{lab: r.sLab[v], dev: r.sSpace.IsDevice(label.VID(v)), sFirst: label.VID(v)}
			sParts[pp.lab] = pp
			order = append(order, pp)
		}
		pp.sCount++
	}
	if len(order) == 0 {
		return r.fallbackCandidates()
	}
	gDev := make(map[label.Value][]label.VID)
	gNet := make(map[label.Value][]label.VID)
	for v := 0; v < r.gSpace.Size(); v++ {
		lab := r.gLab[v]
		if r.gState[v] != g1Active || sParts[lab] == nil {
			continue
		}
		if r.gSpace.IsDevice(label.VID(v)) {
			gDev[lab] = append(gDev[lab], label.VID(v))
		} else {
			gNet[lab] = append(gNet[lab], label.VID(v))
		}
	}
	var best *part
	var bestCV []label.VID
	for _, pp := range order {
		cands := gNet[pp.lab]
		if pp.dev {
			cands = gDev[pp.lab]
		}
		if len(cands) < pp.sCount {
			r.rep.EarlyAbort = true
			return 0, nil
		}
		if best == nil ||
			len(cands) < len(bestCV) ||
			(len(cands) == len(bestCV) && pp.sCount < best.sCount) ||
			(len(cands) == len(bestCV) && pp.sCount == best.sCount && pp.lab < best.lab) {
			best, bestCV = pp, cands
		}
	}
	sort.Slice(bestCV, func(i, j int) bool { return bestCV[i] < bestCV[j] })
	return best.sFirst, bestCV
}

// fallbackCandidates covers patterns with no valid vertex at all: the key
// is the first pattern device and every arity- and type-compatible
// main-graph device is a candidate.
func (r *phase1Ref) fallbackCandidates() (label.VID, []label.VID) {
	key := r.pat.s.Devices[0]
	var cv []label.VID
	for _, d := range r.m.g.Devices {
		if len(d.Pins) == len(key.Pins) && (key.Type == graph.WildcardType || d.Type == key.Type) {
			cv = append(cv, r.gSpace.DevVID(d))
		}
	}
	return r.sSpace.DevVID(key), cv
}

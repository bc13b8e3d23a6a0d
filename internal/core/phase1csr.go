package core

import (
	"subgemini/internal/csr"
	"subgemini/internal/label"
)

// This file implements the Phase I engine: relabeling and consistency passes
// over flat CSR views driven by compact active-vertex worklists.
//
// Determinism argument.  The relabeling function is a sum of per-edge
// products over wrapping uint64 arithmetic, so it commutes: the result does
// not depend on edge order, and equals a pointer walk's fold through
// label.Combine bit for bit.  The graph is bipartite (devices connect only
// to nets and vice versa), so a net pass reads only device labels plus the
// net's own old label — writing the new label in place cannot be observed
// by any other vertex of the pass, which removes the double-buffer commit
// the paper's simultaneous-relabeling formulation suggests.  Consistency
// pruning is per-vertex (a pure function of the vertex label and the
// pattern counts), and compaction keeps worklists in ascending VID order,
// so candidate choice sees vertices in the same order a full scan would.

// p1CancelBlock is how many worklist vertices a pass relabels between
// cancellation checks when Options.Cancel is set.  It is a variable so
// tests can force in-pass polling on small circuits.
var p1CancelBlock = 4096

// initCSR builds the pattern's flat view and the initial worklists.  The
// main-graph view (p.gCSR) is the Matcher's cached one, adopted before the
// initial labels are computed over it; the pattern view is rebuilt per run
// but is pattern-sized, and has no scratch pool, since no run keeps state
// in it.
func (p *phase1) initCSR() {
	p.sCSR = csr.Build(p.pat.s)
	snd, sn := p.sSpace.NumDevices(), p.sSpace.Size()
	gnd, gn := p.gSpace.NumDevices(), p.gSpace.Size()
	// Each worklist pair shares one backing block, split at the device/net
	// boundary; compaction slides survivors down within its own segment.
	sBuf := make([]int32, sn)
	p.sActDev, p.sActNet = sBuf[:0:snd], sBuf[snd:snd:sn]
	gBuf := make([]int32, gn)
	p.gActDev, p.gActNet = gBuf[:0:gnd], gBuf[gnd:gnd:gn]
	for v := 0; v < snd; v++ {
		if p.sState[v] == p1Valid {
			p.sActDev = append(p.sActDev, int32(v))
		}
	}
	for v := snd; v < sn; v++ {
		if p.sState[v] == p1Valid {
			p.sActNet = append(p.sActNet, int32(v))
		}
	}
	for v := 0; v < gnd; v++ {
		if p.gState[v] == g1Active {
			p.gActDev = append(p.gActDev, int32(v))
		}
	}
	for v := gnd; v < gn; v++ {
		if p.gState[v] == g1Active {
			p.gActNet = append(p.gActNet, int32(v))
		}
	}
}

// relabelBatch relabels every worklist vertex in place over the flat
// arrays.  Hoisting the CSR fields into locals keeps the inner loop free
// of pointer loads; this is the hottest loop of Phase I.
func relabelBatch(g *csr.Graph, act []int32, lab []label.Value) {
	start, adj, mul := g.Start, g.Adj, g.Mul
	for _, v := range act {
		acc := lab[v]
		for e := start[v]; e < start[v+1]; e++ {
			acc += label.Value(mul[e] * uint64(lab[adj[e]]))
		}
		lab[v] = acc
	}
}

// pollCancel polls Options.Cancel, latching the first error in p.cancelErr.
func (p *phase1) pollCancel() bool {
	if p.cancelErr != nil {
		return true
	}
	if err := p.m.opts.cancelled(); err != nil {
		p.cancelErr = err
		return true
	}
	return false
}

// relabelCSR runs one relabeling pass over both worklists, writing labels
// in place (see the determinism argument above).  With Options.Cancel set,
// the main-graph pass polls between p1CancelBlock-sized blocks so a
// deadline holds mid-pass on huge worklists.  An abandoned pass leaves
// labels half-updated, which is fine: a cancelled run's labels are never
// read again.
func (p *phase1) relabelCSR(sAct, gAct []int32) {
	relabelBatch(p.sCSR, sAct, p.sLab)
	if p.m.opts.Cancel == nil {
		relabelBatch(p.gCSR, gAct, p.gLab)
		return
	}
	for len(gAct) > 0 {
		n := min(len(gAct), p1CancelBlock)
		relabelBatch(p.gCSR, gAct[:n], p.gLab)
		gAct = gAct[n:]
		if len(gAct) > 0 && p.pollCancel() {
			return
		}
	}
}

// corruptCSR marks the worklist's pattern vertices corrupt when any
// neighbor is corrupt, and returns the compacted worklist of survivors.
func (p *phase1) corruptCSR(act []int32) []int32 {
	kept := act[:0]
	for _, v := range act {
		corrupt := false
		for e := p.sCSR.Start[v]; e < p.sCSR.Start[v+1]; e++ {
			if p.sState[p.sCSR.Adj[e]] == p1Corrupt {
				corrupt = true
				break
			}
		}
		if corrupt {
			p.sState[v] = p1Corrupt
		} else {
			kept = append(kept, v)
		}
	}
	return kept
}

// sortLabels is countDistinct's allocation-free shell sort, shared with
// the consistency-run builder.
func sortLabels(labs []label.Value) {
	for gap := len(labs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(labs); i++ {
			v := labs[i]
			j := i
			for j >= gap && v < labs[j-gap] {
				labs[j] = labs[j-gap]
				j -= gap
			}
			labs[j] = v
		}
	}
}

// lookupLabel returns the index of x in the sorted keys, or -1.  Pattern
// partitions number in the tens at most, so binary search over a flat
// array beats hashing every active main-graph vertex through a map.
func lookupLabel(keys []label.Value, x label.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == x {
		return lo
	}
	return -1
}

// consistency compares valid pattern partitions of one vertex kind against
// the active main-graph partitions with the same labels (paper §III): count
// valid pattern labels, prune main-graph vertices whose label matches no
// pattern partition (compacting the worklist so they never cost again), and
// return false when some main-graph partition is smaller than the
// same-label pattern partition, which proves that no instance exists.  The
// pattern partitions live in sorted key/count arrays (sKeys/sCnt) instead
// of maps, so the per-vertex hot path does no hashing and the steady state
// allocates nothing.
func (p *phase1) consistency(devs bool) bool {
	sAct, gAct := p.sActNet, p.gActNet
	if devs {
		sAct, gAct = p.sActDev, p.gActDev
	}
	p.sKeys = p.sKeys[:0]
	for _, v := range sAct {
		p.sKeys = append(p.sKeys, p.sLab[v])
	}
	if len(p.sKeys) == 0 {
		// Nothing valid on this side: no constraints to apply, and the
		// main-graph side must be left untouched for contribution labels.
		return true
	}
	sortLabels(p.sKeys)
	p.sCnt = p.sCnt[:0]
	k := 0
	for i, lab := range p.sKeys {
		if i > 0 && lab == p.sKeys[k-1] {
			p.sCnt[k-1]++
			continue
		}
		p.sKeys[k] = lab
		p.sCnt = append(p.sCnt, 1)
		k++
	}
	p.sKeys = p.sKeys[:k]
	p.gCnt = p.gCnt[:0]
	for i := 0; i < k; i++ {
		p.gCnt = append(p.gCnt, 0)
	}
	kept := p.pruneActive(gAct)
	if devs {
		p.gActDev = kept
	} else {
		p.gActNet = kept
	}
	for i := range p.sKeys {
		if p.gCnt[i] < p.sCnt[i] {
			return false
		}
	}
	return true
}

// pruneActive partitions the worklist into survivors (returned, counted
// into p.gCnt per pattern partition) and pruned vertices (marked, tallied
// in Phase1Pruned).
func (p *phase1) pruneActive(act []int32) []int32 {
	keys, gLab, gState := p.sKeys, p.gLab, p.gState
	kept := act[:0]
	pruned := 0
	for _, v := range act {
		if i := lookupLabel(keys, gLab[v]); i >= 0 {
			p.gCnt[i]++
			kept = append(kept, v)
		} else {
			gState[v] = g1Pruned
			pruned++
		}
	}
	p.rep.Phase1Pruned += pruned
	return kept
}

package core

import (
	"sync"

	"subgemini/internal/label"
)

// ScratchPool recycles the Phase II engine's state across matching runs:
// one O(|G|) translation array plus the ball-sized per-candidate arrays,
// whose capacities grow to the largest region a circuit produces and then
// stay flat.  A long-lived caller (subgeminid serving a resident circuit)
// then no longer pays main-graph-sized allocations per request.  The zero
// value is ready to use, and one pool may serve any number of concurrent
// matchers over the same circuit.  Install it via Options.Scratch.
type ScratchPool struct {
	pool sync.Pool
}

// rscratch bundles the region engine's reusable state.  A scratch in the
// pool is clean: every local entry is -1 and every mark entry <= markID.
// The ball-sized slices carry only their grown capacity between runs; the
// engine re-slices and reinitializes them per candidate in O(|ball|).
type rscratch struct {
	local  []int32 // gvid -> region-local id, -1 outside the current ball
	mark   []uint32
	markID uint32

	ball      []int32 // local id -> gvid; doubles as the BFS queue
	lLab      []label.Value
	lSafe     []bool
	lFixed    []bool
	lMatch    []label.VID
	lSafeList []int32
	lTouched  []int32
	lInT      []bool
	lPendV    []int32
	lPendL    []label.Value
	gPairs    []labLocal

	// Backtracking snapshots and guess candidate lists, indexed by guess
	// depth; kept across runs so a steady stream of backtrack-heavy
	// candidates stops allocating once the depth high-water mark is reached.
	snaps []*rsnapshot
	cands [][]labLocal
}

// getRegion returns a clean region scratch for a main graph of gn vertices.
func (sp *ScratchPool) getRegion(gn int) *rscratch {
	if v := sp.pool.Get(); v != nil {
		s := v.(*rscratch)
		if len(s.local) == gn {
			if s.markID >= 1<<31 {
				clear(s.mark)
				s.markID = 0
			}
			return s
		}
	}
	s := &rscratch{
		local: make([]int32, gn),
		mark:  make([]uint32, gn),
	}
	for i := range s.local {
		s.local[i] = -1
	}
	return s
}

func (sp *ScratchPool) putRegion(s *rscratch) { sp.pool.Put(s) }

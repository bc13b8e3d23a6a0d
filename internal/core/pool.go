package core

import (
	"sync"

	"subgemini/internal/label"
)

// rscratch bundles the region engine's reusable state: one O(|G|)
// translation array plus the ball-sized per-candidate arrays, whose
// capacities grow to the largest region a circuit produces and then stay
// flat.  The scratch lives in the pool of the run's CSR view
// (csr.Graph.Scratch), so a long-lived caller that shares a view (the
// daemon serving a resident circuit) stops paying main-graph-sized
// allocations per request.  A scratch in the pool is clean: every local
// entry is -1 and every mark entry <= markID.  The ball-sized slices carry
// only their grown capacity between runs; the engine re-slices and
// reinitializes them per candidate in O(|ball|).
type rscratch struct {
	// O(|G|) translation state; local is -1 outside the current ball.
	local  []int32
	mark   []uint32
	markID uint32

	// The current candidate's ball: local id -> gvid, doubling as the BFS
	// queue.
	ball []int32

	// Region-local per-candidate state, all len(ball)-sized.
	lLab      []label.Value
	lSafe     []bool
	lFixed    []bool
	lMatch    []label.VID
	lSafeList []int32

	// lTouched lists the local ids whose labels were ever written this
	// candidate: collectPairs scans it instead of the full ball, so a
	// candidate refuted after labeling a ring pays for the ring, not the
	// ball.  It is never truncated by restore — stale entries are filtered
	// by the exactly restored lLab/lMatch state.
	lTouched []int32
	lInT     []bool

	// Region-side scratch for simultaneous relabeling and partitioning.
	lPendV []int32
	lPendL []label.Value
	gPairs []labLocal

	// snapPool / candsPool recycle backtracking snapshots and guess
	// candidate lists by recursion depth (guesses save and restore strictly
	// LIFO), so a steady stream of backtrack-heavy candidates stops
	// allocating once the depth high-water mark is reached.
	snapPool  []*rsnapshot
	candsPool [][]labLocal
}

// getRegion returns a clean region scratch for a main graph of gn vertices
// from pool.  A view patched from an earlier one shares its pool, so a
// recycled scratch of another size is dropped.
func getRegion(pool *sync.Pool, gn int) *rscratch {
	if v := pool.Get(); v != nil {
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

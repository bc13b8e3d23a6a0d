package main

import (
	"math/rand"
	"sort"
	"time"
)

// The machine the benchmark was written on is a shared VM whose speed
// drifts with its neighbours' load: the same fixed loop takes 9 ms in one
// hour and 14 ms in the next, and every daemon latency moves with it.  Left
// in, that drift is wider than any useful regression bound, both between
// runs and between two sets of runs an hour apart.  So a run measures the
// machine as well as the program: after each daemon stops, it times a fixed
// reference loop that uses only the standard library, and every time metric
// is reported at refNominalMS, as measured × refNominalMS / the run's
// median reference time.  No change to the repository can move the
// reference, so a change to the program still moves the metrics by its own
// effect.
const refNominalMS = 10

// refReps is how many reference loops are timed after each daemon.
const refReps = 4

// refGraph is the reference loop's input: a fixed random graph in CSR form,
// about 2 MB, close to the matcher's own mix of array walks, hashing and
// sorting.
type refGraph struct {
	start []int32
	adj   []int32
}

func newRefGraph() *refGraph {
	const n, deg = 100000, 4
	rng := rand.New(rand.NewSource(1))
	g := &refGraph{start: make([]int32, n+1), adj: make([]int32, 0, n*deg)}
	for v := 0; v < n; v++ {
		g.start[v] = int32(len(g.adj))
		for k := 0; k < deg; k++ {
			g.adj = append(g.adj, int32(rng.Intn(n)))
		}
	}
	g.start[n] = int32(len(g.adj))
	return g
}

// refLoop is one reference loop: a breadth-first search over g, a map
// filled from its distances, and a sort.  It returns a value derived from
// all three so that none of the work can be optimized away.
func refLoop(g *refGraph) int {
	n := len(g.start) - 1
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[g.start[v]:g.start[v+1]] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	m := make(map[int32]int32, 20000)
	for i := 0; i < 20000; i++ {
		m[g.adj[7*i]] += dist[i]
	}
	xs := make([]int, 50000)
	for i := range xs {
		xs[i] = int(g.adj[3*i]) ^ i
	}
	sort.Ints(xs)
	return len(m) + xs[0]
}

// refSink keeps refLoop's results live.
var refSink int

// timeReference times refReps reference loops over g, in ms.
func timeReference(g *refGraph) []float64 {
	xs := make([]float64, refReps)
	for i := range xs {
		start := time.Now()
		refSink += refLoop(g)
		xs[i] = ms(time.Since(start))
	}
	return xs
}

package delta

import (
	"fmt"
	"sort"

	"subgemini/internal/core"
	"subgemini/internal/graph"
)

// Step records the effect of one edit batch on a circuit: the new version,
// the ops that produced it, how every pre-edit vertex index moved (or -1
// for removed vertices), which post-edit vertices the batch dirtied, and
// which net names changed identity.  A Step is exactly what csr.Patch needs
// to splice the flattened graph and, composed across versions, what
// core.FindIncremental needs to replay a cached run.
type Step struct {
	Version uint64 `json:"version"`
	Ops     []Op   `json:"ops"`

	// Old-index → new-index remaps; -1 marks a removed vertex.  Lengths are
	// the pre-edit device and net counts.  A remap is nil when the batch
	// removed no vertex of its kind, which moves none (csr.Remap reads nil
	// as the identity): a retained Step then holds no O(|G|) array.
	DevOld2New []int32 `json:"dev_remap"`
	NetOld2New []int32 `json:"net_remap"`

	// OldDevs and OldNets are the pre-edit vertex counts, NewDevs and
	// NewNets the post-edit ones, so consecutive steps can be validated
	// and composed without the circuit at hand.
	OldDevs int `json:"old_devs"`
	OldNets int `json:"old_nets"`
	NewDevs int `json:"new_devs"`
	NewNets int `json:"new_nets"`

	// Dirty vertices in post-edit index space, ascending.
	DirtyDevs []int32 `json:"dirty_devs"`
	DirtyNets []int32 `json:"dirty_nets"`

	// Touched lists net names whose identity changed (created, removed, or
	// either side of a rename), sorted.  The matcher falls back to a full
	// run when a pattern global or bind target appears here.
	Touched []string `json:"touched,omitempty"`
}

// Apply applies ops to the circuit in order and returns the Step describing
// the batch.  The batch is atomic: when an op fails, or panics, the
// circuit is rolled back to exactly its state before the batch (see
// graph.Undo), so a caller may apply to the circuit it serves from.
func Apply(c *graph.Circuit, version uint64, ops []Op) (*Step, error) {
	step, _, err := ApplyUndo(c, version, ops)
	return step, err
}

// ApplyUndo is Apply that also returns undo, which rolls an applied batch
// back exactly, for a caller that must abandon the batch after it applied
// (the store, when the edit-log append fails).  undo must run before
// anything else mutates the circuit.
func ApplyUndo(c *graph.Circuit, version uint64, ops []Op) (step *Step, undo func(), err error) {
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("delta: empty edit batch")
	}
	u := c.Record()
	defer func() {
		if step == nil {
			u.Rollback()
		}
	}()
	e := newEditor(c)
	for i, op := range ops {
		if err := e.apply(op); err != nil {
			return nil, nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	u.Stop()
	return e.finish(version, ops), u.Rollback, nil
}

// finish converts the editor's state into index remaps and dirty lists.
// A dirty pointer survives iff it still sits in the circuit's slice at its
// (possibly shifted) Index — the mutators keep Index fields current, so
// one bounds-checked comparison suffices.
func (e *editor) finish(version uint64, ops []Op) *Step {
	st := &Step{
		Version:    version,
		Ops:        ops,
		DevOld2New: remap(e.oldDevs, e.c.Devices),
		NetOld2New: remap(e.oldNets, e.c.Nets),
		OldDevs:    e.numDevs,
		OldNets:    e.numNets,
		NewDevs:    len(e.c.Devices),
		NewNets:    len(e.c.Nets),
	}
	for d := range e.dirtyDev {
		if d.Index < len(e.c.Devices) && e.c.Devices[d.Index] == d {
			st.DirtyDevs = append(st.DirtyDevs, int32(d.Index))
		}
	}
	for n := range e.dirtyNet {
		if n.Index < len(e.c.Nets) && e.c.Nets[n.Index] == n {
			st.DirtyNets = append(st.DirtyNets, int32(n.Index))
		}
	}
	sort.Slice(st.DirtyDevs, func(i, j int) bool { return st.DirtyDevs[i] < st.DirtyDevs[j] })
	sort.Slice(st.DirtyNets, func(i, j int) bool { return st.DirtyNets[i] < st.DirtyNets[j] })
	for name := range e.touched {
		st.Touched = append(st.Touched, name)
	}
	sort.Strings(st.Touched)
	return st
}

// remap maps each pre-batch vertex of one kind to its index in now, -1
// when removed; old is the pre-batch list, nil when the batch removed none
// (a removal may also find nothing of this kind to remove).  It returns
// nil when no vertex was removed.  The mutators keep survivors in order
// and append additions, so now is the survivors in order followed by the
// added vertices, and one merge walk pairs each survivor with its new
// index without dereferencing a vertex.
func remap[V comparable](old, now []V) []int32 {
	if old == nil {
		return nil
	}
	m := make([]int32, len(old))
	j := 0
	for i, v := range old {
		if j < len(now) && now[j] == v {
			m[i] = int32(j)
			j++
		} else {
			m[i] = -1
		}
	}
	if j == len(old) {
		return nil
	}
	return m
}

// dense returns remap m over n vertices as a fresh slice, materializing
// the identity when m is nil.
func dense(m []int32, n int) []int32 {
	if m != nil {
		return append([]int32(nil), m...)
	}
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	return d
}

// Compose folds consecutive steps into the DirtySet that carries a matcher
// state captured before steps[0] forward to the circuit after the last
// step.  Remaps chain (a vertex removed at any step stays removed), dirty
// vertices from every step are mapped forward to final index space, and
// Touched names accumulate.  The DirtySet's remaps are dense even where
// every step's is nil.  Steps must be consecutive versions with matching
// dimensions.
func Compose(steps []*Step) (*core.DirtySet, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("delta: no steps to compose")
	}
	for i := 1; i < len(steps); i++ {
		prev, next := steps[i-1], steps[i]
		if next.Version != prev.Version+1 {
			return nil, fmt.Errorf("delta: non-consecutive steps: version %d follows %d", next.Version, prev.Version)
		}
		if next.OldDevs != prev.NewDevs || next.OldNets != prev.NewNets {
			return nil, fmt.Errorf("delta: step %d dimensions %dx%d do not match prior step's %dx%d",
				next.Version, next.OldDevs, next.OldNets, prev.NewDevs, prev.NewNets)
		}
	}

	ds := &core.DirtySet{
		DevOld2New: dense(steps[0].DevOld2New, steps[0].OldDevs),
		NetOld2New: dense(steps[0].NetOld2New, steps[0].OldNets),
	}
	dirtyDev := make(map[int32]bool)
	dirtyNet := make(map[int32]bool)
	touched := make(map[string]bool)
	addDirty := func(m map[int32]bool, vs []int32) {
		for _, v := range vs {
			m[v] = true
		}
	}
	addDirty(dirtyDev, steps[0].DirtyDevs)
	addDirty(dirtyNet, steps[0].DirtyNets)
	for _, name := range steps[0].Touched {
		touched[name] = true
	}
	for _, st := range steps[1:] {
		forward := func(remap []int32, m map[int32]bool, base []int32) {
			if remap == nil {
				return // the step moved no vertex of this kind
			}
			for i, v := range base {
				if v >= 0 {
					base[i] = remap[v]
				}
			}
			moved := make(map[int32]bool, len(m))
			for v := range m {
				if nv := remap[v]; nv >= 0 {
					moved[nv] = true
				}
			}
			for k := range m {
				delete(m, k)
			}
			for k := range moved {
				m[k] = true
			}
		}
		forward(st.DevOld2New, dirtyDev, ds.DevOld2New)
		forward(st.NetOld2New, dirtyNet, ds.NetOld2New)
		addDirty(dirtyDev, st.DirtyDevs)
		addDirty(dirtyNet, st.DirtyNets)
		for _, name := range st.Touched {
			touched[name] = true
		}
	}
	for v := range dirtyDev {
		ds.DirtyDevs = append(ds.DirtyDevs, v)
	}
	for v := range dirtyNet {
		ds.DirtyNets = append(ds.DirtyNets, v)
	}
	sort.Slice(ds.DirtyDevs, func(i, j int) bool { return ds.DirtyDevs[i] < ds.DirtyDevs[j] })
	sort.Slice(ds.DirtyNets, func(i, j int) bool { return ds.DirtyNets[i] < ds.DirtyNets[j] })
	for name := range touched {
		ds.Touched = append(ds.Touched, name)
	}
	sort.Strings(ds.Touched)
	return ds, nil
}

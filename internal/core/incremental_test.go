package core_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// This file holds the differential test between the incremental matcher and
// the full matcher: after every randomized edit script, "edit then
// FindIncremental with the carried-forward capture" must produce the
// bit-identical instance list — same instances, same order — as "edit then
// Find on a fresh matcher".  The contract holds for the region-replay path
// and the degradation path (forced via SetIncReplayCap), and across chained
// captures (the state a replay run produces feeds the next round).

// editCounter hands out process-unique suffixes for generated names.
type editCounter struct{ n int }

func (ec *editCounter) next() int { ec.n++; return ec.n }

// randomOp proposes one edit op valid against the current state of c, or
// ok=false when the roll found no applicable target.
func randomOp(rng *rand.Rand, c *graph.Circuit, ec *editCounter) (delta.Op, bool) {
	randNet := func() *graph.Net { return c.Nets[rng.Intn(len(c.Nets))] }
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // rewire a random pin, sometimes onto a fresh net or a rail
		d := c.Devices[rng.Intn(len(c.Devices))]
		var target string
		switch rng.Intn(4) {
		case 0:
			target = fmt.Sprintf("xn%d", ec.next())
		default:
			target = randNet().Name
		}
		return delta.Op{Op: delta.OpRewirePin, Device: d.Name, Pin: rng.Intn(len(d.Pins)), Net: target}, true
	case 4, 5: // clone an existing device's shape onto random nets
		tmpl := c.Devices[rng.Intn(len(c.Devices))]
		classes := make([]int, len(tmpl.Pins))
		nets := make([]string, len(tmpl.Pins))
		for i, p := range tmpl.Pins {
			classes[i] = int(p.Class)
			if rng.Intn(5) == 0 {
				nets[i] = fmt.Sprintf("xn%d", ec.next())
			} else {
				nets[i] = randNet().Name
			}
		}
		return delta.Op{Op: delta.OpAddDevice, Name: fmt.Sprintf("xd%d", ec.next()),
			Type: tmpl.Type, Classes: classes, Nets: nets}, true
	case 6, 7: // remove a random device (keep the circuit non-trivial)
		if len(c.Devices) <= 8 {
			return delta.Op{}, false
		}
		d := c.Devices[rng.Intn(len(c.Devices))]
		return delta.Op{Op: delta.OpRemoveDevice, Name: d.Name}, true
	case 8: // rename a random non-global net
		n := randNet()
		if n.Global {
			return delta.Op{}, false
		}
		return delta.Op{Op: delta.OpRenameNet, Old: n.Name, New: fmt.Sprintf("xr%d", ec.next())}, true
	default: // add a floating net
		return delta.Op{Op: delta.OpAddNet, Name: fmt.Sprintf("xa%d", ec.next())}, true
	}
}

// randomBatch builds a 1-3 op batch, validating each op sequentially
// against a probe clone so the batch as a whole applies cleanly.
func randomBatch(rng *rand.Rand, c *graph.Circuit, ec *editCounter, version uint64) []delta.Op {
	probe := c.Clone()
	var ops []delta.Op
	want := 1 + rng.Intn(3)
	for attempts := 0; len(ops) < want && attempts < 20; attempts++ {
		op, ok := randomOp(rng, probe, ec)
		if !ok {
			continue
		}
		if _, err := delta.Apply(probe, version, []delta.Op{op}); err != nil {
			continue
		}
		ops = append(ops, op)
	}
	return ops
}

func instStrings(res *core.Result) []string {
	out := make([]string, len(res.Instances))
	for i, in := range res.Instances {
		out[i] = in.String()
	}
	return out
}

func sameInstances(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runIncDiff drives the differential property under the current replay cap
// and returns how many candidates were replayed from captures in total.
func runIncDiff(t *testing.T, maxCount int) (replayedTotal int) {
	t.Helper()

	cells := []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.FA}
	prop := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var d *gen.Design
		switch rng.Intn(3) {
		case 0:
			d = gen.InverterChain(40 + rng.Intn(40))
		case 1:
			d = gen.NandMesh(4+rng.Intn(3), 6)
		default:
			d = gen.RandomLogic(30+rng.Intn(30), 6, seed)
		}
		c := d.C
		cell := cells[int(pick)%len(cells)]
		opts := core.Options{Globals: rails, Seed: uint64(seed)}

		oracle := func() []string {
			res, err := core.Find(c, cell.Pattern(), opts)
			if err != nil {
				t.Fatalf("oracle Find: %v", err)
			}
			return instStrings(res)
		}

		// Version 0: first run captures.
		m0, err := core.NewMatcher(c, opts)
		if err != nil {
			t.Fatalf("NewMatcher: %v", err)
		}
		res, state, err := m0.FindIncremental(cell.Pattern(), nil, nil)
		if err != nil {
			t.Fatalf("FindIncremental: %v", err)
		}
		if res.Report.IncrementalMode != "full" {
			t.Errorf("first run mode = %q, want full", res.Report.IncrementalMode)
			return false
		}
		if !sameInstances(instStrings(res), oracle()) {
			t.Logf("seed=%d cell=%s: initial run diverged", seed, cell.Name)
			return false
		}

		ec := &editCounter{}
		version := uint64(1)
		var steps []*delta.Step
		for round := 0; round < 4; round++ {
			// One or (30% of rounds) two batches before re-matching, so
			// Compose sees multi-step runs.
			batches := 1
			if rng.Intn(10) < 3 {
				batches = 2
			}
			for b := 0; b < batches; b++ {
				ops := randomBatch(rng, c, ec, version)
				if len(ops) == 0 {
					continue
				}
				st, err := delta.Apply(c, version, ops)
				if err != nil {
					t.Fatalf("Apply (validated batch): %v", err)
				}
				steps = append(steps, st)
				version++
			}
			if len(steps) == 0 {
				continue
			}
			ds, err := delta.Compose(steps)
			if err != nil {
				t.Fatalf("Compose: %v", err)
			}
			steps = steps[:0]

			im, err := core.NewMatcher(c, opts)
			if err != nil {
				t.Fatalf("NewMatcher (edited): %v", err)
			}
			ires, istate, err := im.FindIncremental(cell.Pattern(), state, ds)
			if err != nil {
				t.Fatalf("FindIncremental (edited): %v", err)
			}
			if istate == nil {
				t.Fatalf("incremental run returned no capture")
			}
			replayedTotal += ires.Report.Replayed
			if !sameInstances(instStrings(ires), oracle()) {
				t.Logf("seed=%d cell=%s round=%d mode=%s: %v vs oracle %v",
					seed, cell.Name, round,
					ires.Report.IncrementalMode, instStrings(ires), oracle())
				return false
			}
			state = istate
		}
		return true
	}
	// Fixed source: the replay/recompute split is part of what the subtests
	// assert on, so the property inputs must reproduce across runs.
	cfg := &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(20260808))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	return replayedTotal
}

// TestIncrementalDifferential asserts "edit then incremental re-match" is
// bit-identical (instances and order) to "edit then full re-match" across
// randomized edit scripts and both incremental paths.
func TestIncrementalDifferential(t *testing.T) {
	t.Run("region", func(t *testing.T) {
		// Cap 1.0: the region replay path runs whenever compatible.
		defer core.SetIncReplayCap(1.0)()
		if replayed := runIncDiff(t, 12); !t.Failed() && replayed == 0 {
			t.Error("region path never replayed a candidate")
		}
	})
	t.Run("degraded", func(t *testing.T) {
		// Cap 0: every replay degrades to full Phase I, exercising Phase II
		// outcome replay on top of a fresh labeling.
		defer core.SetIncReplayCap(0)()
		if replayed := runIncDiff(t, 8); !t.Failed() && replayed == 0 {
			t.Error("degraded path never replayed a candidate")
		}
	})
}

// TestIncrementalFallbacks pins the compatibility rules: a touched pattern
// global or bind target forces the full-capture path, and incompatible
// options force the legacy path with no capture.
func TestIncrementalFallbacks(t *testing.T) {
	d := gen.InverterChain(20)
	opts := core.Options{Globals: rails}

	m0, err := core.NewMatcher(d.C, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := m0.FindIncremental(stdcell.INV.Pattern(), nil, nil)
	if err != nil || state == nil {
		t.Fatalf("seed run: state=%v err=%v", state, err)
	}

	// An edit whose Touched names a pattern global must fall back to full.
	ds := &core.DirtySet{
		DevOld2New: identity(d.C.NumDevices()),
		NetOld2New: identity(d.C.NumNets()),
		Touched:    []string{"VDD"},
	}
	m1, err := core.NewMatcher(d.C, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := m1.FindIncremental(stdcell.INV.Pattern(), state, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.IncrementalMode != "full" {
		t.Errorf("touched global: mode = %q, want full", res.Report.IncrementalMode)
	}

	// A benign dirty set replays.
	ds.Touched = nil
	ds.DirtyDevs = []int32{0}
	defer core.SetIncReplayCap(1.0)()
	m2, err := core.NewMatcher(d.C, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, state2, err := m2.FindIncremental(stdcell.INV.Pattern(), state, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.IncrementalMode != "replay" {
		t.Errorf("benign edit: mode = %q, want replay", res.Report.IncrementalMode)
	}
	if state2 == nil || res.Report.Replayed == 0 {
		t.Errorf("benign edit: state=%v replayed=%d", state2, res.Report.Replayed)
	}

	// Incompatible options go legacy and capture nothing.
	legacy := opts
	legacy.Policy = core.NonOverlapping
	m3, err := core.NewMatcher(d.C, legacy)
	if err != nil {
		t.Fatal(err)
	}
	res, state3, err := m3.FindIncremental(stdcell.INV.Pattern(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.IncrementalMode != "legacy" || state3 != nil {
		t.Errorf("NonOverlapping: mode=%q state=%v", res.Report.IncrementalMode, state3)
	}
}

func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

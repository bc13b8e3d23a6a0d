package delta

import (
	"encoding/json"
	"slices"
	"testing"

	"subgemini/internal/gen"
	"subgemini/internal/graph"
)

// fuzzCircuit is FuzzApply's starting point: a four-inverter chain with
// its rails global, plus a net "spare" that an earlier batch's add_net
// left floating and that belongs to no device.
func fuzzCircuit() *graph.Circuit {
	c := gen.InverterChain(4).C
	c.MarkGlobal("VDD")
	c.MarkGlobal("GND")
	c.AddNet("spare")
	return c
}

// FuzzApply decodes a JSON edit-op batch, the body of a PATCH, and applies
// it to fuzzCircuit with ApplyUndo.  A failed batch must leave the circuit
// exactly as it was.  A batch that applies must leave a valid circuit and
// name in Step.Touched every net name that entered or left NetByName, and
// its undo must restore the circuit exactly.  The seed corpus is in
// testdata/fuzz/FuzzApply: eco-style rewires, removals (one of a device
// beside the floating spare net) and malformed or refused ops.  `go test`
// runs the corpus; `go test -fuzz FuzzApply` explores further.
func FuzzApply(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ops []Op
		if json.Unmarshal(data, &ops) != nil || len(ops) > 64 {
			return
		}
		var names []string
		for _, op := range ops {
			names = append(names, op.Name, op.Old, op.New, op.Device, op.Net)
			names = append(names, op.Nets...)
		}
		c := fuzzCircuit()
		before := freeze(c)
		step, undo, err := ApplyUndo(c, 2, ops)
		if err != nil {
			sameAsFrozen(t, "failed batch", c, before, names)
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("applied batch left an invalid circuit: %v", err)
		}
		for _, n := range before.ref.Nets {
			if c.NetByName(n.Name) == nil && !slices.Contains(step.Touched, n.Name) {
				t.Errorf("net %q left the circuit but Touched = %v", n.Name, step.Touched)
			}
		}
		for _, n := range c.Nets {
			if before.ref.NetByName(n.Name) == nil && !slices.Contains(step.Touched, n.Name) {
				t.Errorf("net %q entered the circuit but Touched = %v", n.Name, step.Touched)
			}
		}
		undo()
		sameAsFrozen(t, "undone batch", c, before, names)
	})
}

package store

import (
	"strings"
	"testing"

	"subgemini/internal/delta"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
)

// rand4000 is the upload the match-rand and eco-patch workloads make: a
// 27k-device random-logic netlist as read back from its text, so device
// names carry their element letters and the snapshot is a .sp netlist.
func rand4000(b testing.TB) *graph.Circuit {
	b.Helper()
	var buf strings.Builder
	if err := netlist.WriteCircuit(&buf, gen.RandomLogic(4000, 4000/64+8, 1).C); err != nil {
		b.Fatal(err)
	}
	f, err := netlist.ParseString(buf.String(), "rand4000.sp")
	if err != nil {
		b.Fatal(err)
	}
	c, err := f.MainCircuit("rand4000")
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkStorePut times one Put of rand4000 on a data directory: CSR
// build, fsynced snapshot and manifest.
func BenchmarkStorePut(b *testing.B) {
	c := rand4000(b)
	st, err := Open(Config{Dir: b.TempDir(), Globals: rails})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Put("rand4000", c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyEdits times one small edit batch on rand4000 with a data
// directory: apply in place (nothing else holds the circuit), CSR patch,
// fsynced log append, and a compaction with its manifest rewrite every
// compactEvery batches.  As in the eco-patch workload,
// batches alternate between moving a pin onto a fresh net and moving it
// back while deleting that net, so the circuit does not grow.
func BenchmarkApplyEdits(b *testing.B) {
	c := rand4000(b)
	st, err := Open(Config{Dir: b.TempDir(), Globals: rails})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	dev := c.Devices[len(c.Devices)/2]
	apply := editOps(dev.Name, "eco")
	revert := append(editOps(dev.Name, dev.Pins[0].Net.Name), delta.Op{Op: delta.OpRemoveNet, Name: "eco"})
	if _, err := st.Put("rand4000", c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := apply
		if i%2 == 1 {
			ops = revert
		}
		if _, err := st.ApplyEdits("rand4000", ops); err != nil {
			b.Fatal(err)
		}
	}
}

package store

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

var rails = []string{"VDD", "GND"}

const nandSrc = `
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
MP3 z y VDD pmos
MN3 z y GND nmos
.END
`

func parseMain(t *testing.T, src, name string) *graph.Circuit {
	t.Helper()
	ckt, err := parseMainErr(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return ckt
}

func parseMainErr(src, name string) (*graph.Circuit, error) {
	f, err := netlist.ParseString(src, name)
	if err != nil {
		return nil, err
	}
	return f.MainCircuit(name)
}

// match runs one FA (or given cell) match through a handle the way the
// server does: globals pre-marked via the entry lock, shared CSR and
// scratch pool.
func match(t *testing.T, h *Handle, cell string) int {
	t.Helper()
	pat := stdcell.Get(cell).Pattern()
	for _, g := range rails {
		pat.MarkGlobal(g)
	}
	h.RLockWithGlobals(rails)
	defer h.RUnlock()
	m, err := core.NewMatcher(h.Circuit(), core.Options{CSR: h.CSR(), Scratch: h.Scratch()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Find(pat)
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Instances)
}

func TestPutAcquireDelete(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	d := gen.RippleAdder(4)
	if _, err := st.Put("adder", d.C); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}

	h, err := st.Acquire("adder")
	if err != nil {
		t.Fatal(err)
	}
	want := d.Expected(stdcell.FA)
	if got := match(t, h, "FA"); got != want {
		t.Errorf("FA matches = %d, want %d", got, want)
	}
	h.Release()
	h.Release() // double release is a no-op

	if _, err := st.Acquire("nope"); err == nil || !strings.Contains(err.Error(), "no such circuit") {
		t.Errorf("Acquire(nope) = %v, want not-found", err)
	}

	infos := st.List()
	if len(infos) != 2 || infos[0].Name != "adder" || infos[1].Name != "chip" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[1].Devices != 6 || !infos[1].Resident || infos[1].Snapshot {
		t.Errorf("chip info = %+v, want 6 devices, resident, no snapshot", infos[1])
	}

	if err := st.Delete("chip"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("chip"); err == nil {
		t.Error("second delete succeeded")
	}
	if _, ok := st.Get("chip"); ok {
		t.Error("deleted entry still listed")
	}
}

func TestPutReplacementKeepsInFlightHandles(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("c", parseMain(t, nandSrc, "v1")); err != nil {
		t.Fatal(err)
	}
	h, err := st.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	old := h.Circuit()
	if _, err := st.Put("c", gen.RippleAdder(2).C); err != nil {
		t.Fatal(err)
	}
	if h.Circuit() != old {
		t.Error("in-flight handle was retargeted by a replacement Put")
	}
	if got := match(t, h, "NAND2"); got != 1 {
		t.Errorf("match through old handle = %d, want 1", got)
	}
	h.Release()

	h2, err := st.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Circuit() == old {
		t.Error("new handle still sees the replaced circuit")
	}
	h2.Release()
}

// putMatchAndReplace installs a circuit, runs a match through its scratch
// pool, replaces the entry, and returns a channel closed when the first
// circuit is garbage collected.  It is a separate function so no stack slot
// of the caller keeps the circuit alive.
//
//go:noinline
func putMatchAndReplace(t *testing.T, st *Store) <-chan struct{} {
	collected := make(chan struct{})
	c := parseMain(t, nandSrc, "v1")
	runtime.SetFinalizer(c, func(*graph.Circuit) { close(collected) })
	if _, err := st.Put("c", c); err != nil {
		t.Fatal(err)
	}
	h, err := st.Acquire("c")
	if err != nil {
		t.Fatal(err)
	}
	match(t, h, "NAND2")
	h.Release()
	if _, err := st.Put("c", parseMain(t, nandSrc, "v2")); err != nil {
		t.Fatal(err)
	}
	return collected
}

// TestReplacedEntryIsCollectable: once replaced and released, an entry's
// circuit is garbage at the next GC.  Regression: the entry embedded its
// scratch pool, and the runtime keeps every used sync.Pool reachable until
// the second GC after its last use, so each replaced or edited entry
// pinned a whole circuit and CSR view for two GC cycles, and the daemon's
// resident set grew with its upload and PATCH rate.
func TestReplacedEntryIsCollectable(t *testing.T) {
	st, err := Open(Config{Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	collected := putMatchAndReplace(t, st)
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("replaced circuit survived a GC")
	}
}

func TestInvalidNames(t *testing.T) {
	st, _ := Open(Config{})
	for _, name := range []string{"", ".hidden", "-flag", "a/b", "a b", strings.Repeat("x", 65)} {
		if _, err := st.Put(name, parseMain(t, nandSrc, "c")); err == nil {
			t.Errorf("Put(%q) accepted an invalid name", name)
		}
	}
	for _, name := range []string{"a", "chip-2.final_v3", "X"} {
		if !ValidName(name) {
			t.Errorf("ValidName(%q) = false", name)
		}
	}
}

// TestEvictionAndReload: a budget that fits one adder demotes the colder
// entry once both are stored, and the demoted entry transparently reloads
// from its snapshot on the next Acquire with globals and matches intact.
func TestEvictionAndReload(t *testing.T) {
	dir := t.TempDir()
	budget := estimateBytes(gen.RippleAdder(4).C) * 3 / 2
	st, err := Open(Config{Dir: dir, MaxBytes: budget, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	a := gen.RippleAdder(4)
	if _, err := st.Put("a", a.C); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("b", gen.RippleAdder(4).C); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Evictions != 1 || stats.Resident != 1 {
		t.Fatalf("after second Put: %+v, want 1 eviction, 1 resident", stats)
	}
	infoA, _ := st.Get("a")
	if infoA.Resident {
		t.Error("LRU entry a still resident under budget")
	}

	h, err := st.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	want := a.Expected(stdcell.FA)
	if got := match(t, h, "FA"); got != want {
		t.Errorf("reloaded circuit: FA matches = %d, want %d", got, want)
	}
	h.Release()
	if st.Stats().Reloads != 1 {
		t.Errorf("reloads = %d, want 1", st.Stats().Reloads)
	}
}

// TestEvictionSkipsReferencedAndMemoryOnly: entries pinned by a handle or
// without a snapshot are never demoted, even far over budget.
func TestEvictionSkipsReferencedAndMemoryOnly(t *testing.T) {
	// Memory-only store: budget exceeded but nothing evictable.
	st, _ := Open(Config{MaxBytes: 1, Globals: rails})
	if _, err := st.Put("a", parseMain(t, nandSrc, "a")); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Evictions != 0 || s.Resident != 1 {
		t.Errorf("memory-only store evicted: %+v", s)
	}

	// Durable store: a referenced entry is pinned.
	st2, err := Open(Config{Dir: t.TempDir(), MaxBytes: 1, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Put("a", parseMain(t, nandSrc, "a")); err != nil {
		t.Fatal(err)
	}
	h, err := st2.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Put("b", parseMain(t, nandSrc, "b")); err != nil {
		t.Fatal(err)
	}
	infoA, _ := st2.Get("a")
	if !infoA.Resident {
		t.Error("referenced entry was demoted")
	}
	h.Release()
	// Releasing the pin lets the over-budget store demote it.
	infoA, _ = st2.Get("a")
	if infoA.Resident {
		t.Error("idle entry stayed resident over budget after release")
	}
}

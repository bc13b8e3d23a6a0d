package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subgemini/internal/delta"
	"subgemini/internal/faults"
	"subgemini/internal/graph"
)

// circuitState is what a reboot shows of one circuit: absent, or its
// version and a canonical rendering of its devices and their pin nets.
type circuitState struct {
	present bool
	version uint64
	devices string
}

func (s circuitState) String() string {
	if !s.present {
		return "absent"
	}
	return fmt.Sprintf("version %d %s", s.version, s.devices)
}

func stateOf(t *testing.T, st *Store, name string) circuitState {
	t.Helper()
	h, err := st.Acquire(name)
	if errors.Is(err, ErrNotFound) {
		return circuitState{}
	}
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return circuitState{present: true, version: h.Version(), devices: fingerprint(h.Circuit())}
}

func fingerprint(c *graph.Circuit) string {
	var lines []string
	for _, d := range c.Devices {
		l := d.Name + " " + d.Type
		for _, p := range d.Pins {
			l += " " + p.Net.Name
		}
		lines = append(lines, l)
	}
	slices.Sort(lines)
	return strings.Join(lines, "; ")
}

// addDeviceOps adds one nmos named Mz<i> between y and a net of its own.
func addDeviceOps(i int) []delta.Op {
	return []delta.Op{{Op: delta.OpAddDevice, Name: fmt.Sprintf("Mz%d", i), Type: "nmos",
		Classes: []int{0, 1, 0}, Nets: []string{"y", fmt.Sprintf("z%d", i), "GND"}}}
}

// crashOp is one store operation whose every persistence fault point the
// crash test visits: setup builds the state before it, run performs it.
type crashOp struct {
	name  string
	setup func(t *testing.T, st *Store)
	run   func(st *Store) error
}

var crashOps = []crashOp{
	{
		// A replacing Put over a lineage with edits: the upload has MP1 pin
		// 0 on y, where the old lineage moved it to spare, and one more
		// device, so the old log replayed onto it would show.
		name: "replace-put",
		setup: func(t *testing.T, st *Store) {
			for range 3 {
				if _, err := st.ApplyEdits("chip", editOps("MP1", "spare")); err != nil {
					t.Fatal(err)
				}
			}
		},
		run: func(st *Store) error {
			c, err := parseMainErr(strings.Replace(nandSrc, ".END", "MP9 w a VDD pmos\n.END", 1), "chip")
			if err != nil {
				return err
			}
			_, err = st.Put("chip", c)
			return err
		},
	},
	{
		// A replacement the way an upload makes it: the hierarchical source
		// text is the snapshot (PutSource).  Its MP1 has pin 0 on y, where
		// the old lineage's edits moved it to spare, so the old log
		// replayed onto it would show.
		name: "source-put",
		setup: func(t *testing.T, st *Store) {
			for range 3 {
				if _, err := st.ApplyEdits("chip", editOps("MP1", "spare")); err != nil {
					t.Fatal(err)
				}
			}
		},
		run: func(st *Store) error {
			src := strings.Replace(hierSrc, "X1 a b INV", "MP1 y a VDD pmos\nX1 a b INV", 1)
			c, err := parseMainErr(src, "chip")
			if err != nil {
				return err
			}
			_, err = st.PutSource("chip", c, src)
			return err
		},
	},
	{
		// The edit that reaches compactEvery log records compacts.
		name: "compacting-edit",
		setup: func(t *testing.T, st *Store) {
			for i := range compactEvery - 1 {
				if _, err := st.ApplyEdits("chip", addDeviceOps(i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		run: func(st *Store) error {
			_, err := st.ApplyEdits("chip", addDeviceOps(compactEvery-1))
			return err
		},
	},
	{
		name:  "delete",
		setup: func(t *testing.T, st *Store) {},
		run:   func(st *Store) error { return st.Delete("chip") },
	},
}

// TestCrashAtEveryPersistencePoint crashes (panics) each store operation
// at each persistence fault point in turn and reboots the data directory
// without Close: the rebooted circuit must be exactly the state before or
// after the operation, and a bystander circuit must be untouched.  A point
// the operation never reaches must leave the state after it.
func TestCrashAtEveryPersistencePoint(t *testing.T) {
	defer faults.Reset()
	var points []string
	for _, p := range faults.List() {
		if strings.HasPrefix(p.Name, "store.") {
			points = append(points, p.Name)
		}
	}
	if len(points) < 4 {
		t.Fatalf("store fault points = %v", points)
	}
	reached := make(map[string]bool)
	for _, op := range crashOps {
		// The expected state after the operation, from a run without faults.
		afterDir := t.TempDir()
		st := bootChip(t, afterDir)
		op.setup(t, st)
		before := stateOf(t, st, "chip")
		if err := op.run(st); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		after := stateOf(t, st, "chip")
		if before == after {
			t.Fatalf("%s: the operation changed nothing", op.name)
		}

		for _, point := range points {
			dir := t.TempDir()
			st := bootChip(t, dir)
			op.setup(t, st)
			bystander := stateOf(t, st, "other")
			faults.Arm(point, faults.Spec{Mode: faults.ModePanic, Count: 1})
			var runErr error
			crashed := func() (crashed bool) {
				defer func() { crashed = recover() != nil }()
				runErr = op.run(st)
				return false
			}()
			faults.Reset()
			if !crashed && runErr != nil {
				t.Fatalf("%s with %s armed: %v", op.name, point, runErr)
			}
			reached[point] = reached[point] || crashed

			st2, err := Open(Config{Dir: dir, Globals: rails})
			if err != nil {
				t.Fatalf("%s crashed at %s: reboot failed: %v", op.name, point, err)
			}
			got := stateOf(t, st2, "chip")
			switch {
			case got != before && got != after:
				t.Errorf("%s crashed at %s: rebooted %v\nwant before: %v\n  or after: %v", op.name, point, got, before, after)
			case !crashed && got != after:
				t.Errorf("%s never reached %s, but rebooted %v, want %v", op.name, point, got, after)
			}
			if b := stateOf(t, st2, "other"); b != bystander {
				t.Errorf("%s crashed at %s: bystander rebooted %v, want %v", op.name, point, b, bystander)
			}
			// A second reboot, after the first removed the crash's leftovers,
			// sees the same state.
			st3, err := Open(Config{Dir: dir, Globals: rails})
			if err != nil {
				t.Fatalf("%s crashed at %s: second reboot failed: %v", op.name, point, err)
			}
			if again := stateOf(t, st3, "chip"); again != got {
				t.Errorf("%s crashed at %s: second reboot %v, first %v", op.name, point, again, got)
			}
		}
	}
	for _, point := range points {
		if !reached[point] && point != "store.reload" {
			t.Errorf("no operation reached %s", point)
		}
	}
}

func bootChip(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("chip", parseMain(t, nandSrc, "chip")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Put("other", parseMain(t, nandSrc, "other")); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDeleteWithFailedManifestStaysBootable: Delete used to remove the
// snapshot before the manifest without the circuit was durable, so a
// failed manifest write left a manifest naming a missing file and the next
// Open failed.
func TestDeleteWithFailedManifestStaysBootable(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	st := bootChip(t, dir)
	faults.Arm("store.write-manifest", faults.Spec{Mode: faults.ModeError, Count: 1})
	if err := st.Delete("chip"); err == nil {
		t.Fatal("Delete succeeded despite the injected manifest failure")
	}
	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reboot after the failed delete: %v", err)
	}
	if got := stateOf(t, st2, "chip"); !got.present || got.version != 1 {
		t.Errorf("chip after the failed delete = %v, want version 1", got)
	}
}

// TestCompactionCrashDoesNotReplayFoldedEdits: compaction used to write the
// folded snapshot over the file the manifest still named, so a crash
// before the manifest rewrite replayed the edit log onto a snapshot that
// already held its edits and boot failed on a duplicate device.
func TestCompactionCrashDoesNotReplayFoldedEdits(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	st := bootChip(t, dir)
	for i := range compactEvery - 1 {
		if _, err := st.ApplyEdits("chip", addDeviceOps(i)); err != nil {
			t.Fatal(err)
		}
	}
	faults.Arm("store.write-manifest", faults.Spec{Mode: faults.ModePanic, Count: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the compacting edit did not reach the manifest write")
			}
		}()
		st.ApplyEdits("chip", addDeviceOps(compactEvery-1))
	}()
	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reboot after a crash mid-compaction: %v", err)
	}
	got := stateOf(t, st2, "chip")
	if got.version != compactEvery+1 || !strings.Contains(got.devices, fmt.Sprintf("Mz%d", compactEvery-1)) {
		t.Errorf("rebooted %v, want version %d with every edit", got, compactEvery+1)
	}
	// Boot removed the unnamed folded snapshot the crash left behind.
	des, err := os.ReadDir(filepath.Join(dir, circuitsDir))
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, de := range des {
		files = append(files, de.Name())
	}
	if want := []string{"chip.log", "chip.sp", "other.sp"}; !slices.Equal(files, want) {
		t.Errorf("circuits/ holds %v after reboot, want %v", files, want)
	}
}

// TestFailedReplacementKeepsLogLineages: a replacing Put whose manifest
// write failed leaves the old lineage durable, so the new lineage's edit
// log must have a name of its own even though the old lineage never
// created its log file; otherwise an edit appended after the failed Put,
// then a crash, replays the new lineage's edit onto the old snapshot.
func TestFailedReplacementKeepsLogLineages(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	st := bootChip(t, dir)
	before := stateOf(t, st, "chip")
	faults.Arm("store.write-manifest", faults.Spec{Mode: faults.ModeError, Count: 1})
	replacement := parseMain(t, strings.Replace(nandSrc, ".END", "MP9 w a VDD pmos\n.END", 1), "chip")
	if _, err := st.Put("chip", replacement); err == nil {
		t.Fatal("Put succeeded despite the injected manifest failure")
	}
	faults.Arm("store.write-manifest", faults.Spec{Mode: faults.ModePanic, Count: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the edit did not reach the manifest write")
			}
		}()
		st.ApplyEdits("chip", editOps("MP1", "spare"))
	}()
	st2, err := Open(Config{Dir: dir, Globals: rails})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	if got := stateOf(t, st2, "chip"); got != before {
		t.Errorf("rebooted %v, want the state before the failed replacement, %v", got, before)
	}
}

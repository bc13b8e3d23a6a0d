package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subgemini/internal/faults"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// TestHealthTracksPersistenceIO: Healthy() reflects the outcome of the most
// recent persistence operation — an injected snapshot-write failure flips it
// false, the next clean write flips it back.  Put and PutSource, an
// upload's path, pass the same fault point, and a failed replacement
// leaves the stored circuit and the files under circuits/ as they were.
func TestHealthTracksPersistenceIO(t *testing.T) {
	defer faults.Reset()
	for _, tc := range []struct {
		name string
		put  func(st *Store, src string) error
	}{
		{"Put", func(st *Store, src string) error {
			_, err := st.Put("a", parseMain(t, src, "a"))
			return err
		}},
		{"PutSource", func(st *Store, src string) error {
			_, err := st.PutSource("a", parseMain(t, src, "a"), src)
			return err
		}},
	} {
		dir := t.TempDir()
		st, err := Open(Config{Dir: dir, Globals: rails})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Healthy() {
			t.Fatal("fresh store not healthy")
		}

		faults.Arm("store.write-snapshot", faults.Spec{Mode: faults.ModeError, Count: 1})
		if err := tc.put(st, nandSrc); err == nil {
			t.Fatalf("%s succeeded despite injected snapshot-write failure", tc.name)
		}
		if st.Healthy() {
			t.Errorf("%s: store healthy right after a failed snapshot write", tc.name)
		}

		if err := tc.put(st, nandSrc); err != nil {
			t.Fatal(err)
		}
		if !st.Healthy() {
			t.Errorf("%s: store still unhealthy after a clean write", tc.name)
		}

		faults.Arm("store.write-snapshot", faults.Spec{Mode: faults.ModeError, Count: 1})
		if err := tc.put(st, hierSrc); err == nil {
			t.Fatalf("%s replacement succeeded despite injected snapshot-write failure", tc.name)
		}
		des, err := os.ReadDir(filepath.Join(dir, circuitsDir))
		if err != nil {
			t.Fatal(err)
		}
		if len(des) != 1 || des[0].Name() != "a.sp" {
			t.Errorf("%s: circuits/ holds %d files after the failed replacement, want only a.sp", tc.name, len(des))
		}
		if info, _ := st.Get("a"); info.Devices != 6 {
			t.Errorf("%s: stored circuit has %d devices after the failed replacement, want the original 6", tc.name, info.Devices)
		}
	}
}

// TestHealthTracksReload: an injected reload failure makes the demoted
// entry's Acquire fail and the store unhealthy; the next Acquire reloads
// cleanly and recovers both.
func TestHealthTracksReload(t *testing.T) {
	defer faults.Reset()
	budget := estimateBytes(gen.RippleAdder(4).C) * 3 / 2
	st, err := Open(Config{Dir: t.TempDir(), MaxBytes: budget, Globals: rails})
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
	if info, _ := st.Get("a"); info.Resident {
		t.Fatal("entry a still resident; eviction precondition failed")
	}

	faults.Arm("store.reload", faults.Spec{Mode: faults.ModeError, Count: 1})
	if _, err := st.Acquire("a"); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Acquire = %v, want injected reload failure", err)
	}
	if st.Healthy() {
		t.Error("store healthy right after a failed reload")
	}

	h, err := st.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := match(t, h, "FA"), a.Expected(stdcell.FA); got != want {
		t.Errorf("reloaded circuit: FA matches = %d, want %d", got, want)
	}
	h.Release()
	if !st.Healthy() {
		t.Error("store still unhealthy after a clean reload")
	}
}

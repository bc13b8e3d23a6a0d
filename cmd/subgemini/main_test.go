package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const circuitSrc = `
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
MP3 z y VDD pmos
MN3 z y GND nmos
.END
`

const patternSrc = `
.GLOBAL VDD GND
.SUBCKT NANDX A B Y
MP1 Y A VDD pmos
MP2 Y B VDD pmos
MN1 Y A n1 nmos
MN2 n1 B GND nmos
.ENDS
`

func writeTemp(t *testing.T, name, contents string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out, errOut strings.Builder
	err := run(args, &out, &errOut)
	return out.String(), err
}

func TestCLIWithLibraryCell(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	out, err := runCLI(t, "-circuit", ckt, "-cell", "NAND2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 instance(s)") {
		t.Errorf("output missing instance count:\n%s", out)
	}
	if !strings.Contains(out, "MP1 MP2 MN1 MN2") {
		t.Errorf("output missing instance devices:\n%s", out)
	}
}

func TestCLIWithPatternFile(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	pat := writeTemp(t, "p.sp", patternSrc)
	// Single subckt in the file: -subckt may be omitted.
	out, err := runCLI(t, "-circuit", ckt, "-pattern", pat, "-q")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "1" {
		t.Errorf("quiet output = %q, want 1", out)
	}
	// Explicit -subckt also works.
	out, err = runCLI(t, "-circuit", ckt, "-pattern", pat, "-subckt", "NANDX", "-q")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "1" {
		t.Errorf("quiet output = %q, want 1", out)
	}
}

func TestCLITraceTable(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	out, err := runCLI(t, "-circuit", ckt, "-cell", "INV", "-tracetable")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Phase II trace for candidate") {
		t.Errorf("trace table missing:\n%s", out)
	}
}

// TestCLIVerbose: -v renders the run's trace events on stderr as the
// tracefmt tables, and still feeds a -trace file when both are given.
func TestCLIVerbose(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	tracePath := filepath.Join(t.TempDir(), "run.json")
	var out, errOut strings.Builder
	if err := run([]string{"-circuit", ckt, "-cell", "NAND2", "-v", "-trace", tracePath}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run: pattern NAND2", "Phase I relabeling:", "phase1: key vertex",
		"Phase II candidates:", "MATCH", "run end: 1 instance(s)"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("-v stderr missing %q:\n%s", want, errOut.String())
		}
	}
	if !strings.Contains(out.String(), "1 instance(s)") {
		t.Errorf("-v changed stdout:\n%s", out.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind": "candidate"`) {
		t.Errorf("-trace file lost its candidate spans under -v:\n%s", data)
	}
}

func TestCLIBind(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	out, err := runCLI(t, "-circuit", ckt, "-cell", "INV", "-bind", "A=y", "-q")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "1" {
		t.Errorf("bound count = %q, want 1", out)
	}
	out, err = runCLI(t, "-circuit", ckt, "-cell", "INV", "-bind", "A=a", "-q")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "0" {
		t.Errorf("bound-to-a count = %q, want 0 (a drives the NAND, not an inverter)", out)
	}
}

func TestCLIWorkers(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	for _, w := range []string{"2", "-1"} {
		out, err := runCLI(t, "-circuit", ckt, "-cell", "NAND2", "-workers", w, "-q")
		if err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		if strings.TrimSpace(out) != "1" {
			t.Errorf("-workers %s count = %q, want 1", w, out)
		}
	}
	// The parallel matcher rejects NonOverlapping and MaxInstances; the
	// CLI reports that before doing any work.
	for _, args := range [][]string{
		{"-circuit", ckt, "-cell", "NAND2", "-workers", "2", "-nonoverlap"},
		{"-circuit", ckt, "-cell", "NAND2", "-workers", "2", "-max", "1"},
	} {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	pat := writeTemp(t, "p.sp", patternSrc)
	cases := [][]string{
		{},                // no -circuit
		{"-circuit", ckt}, // neither -pattern nor -cell
		{"-circuit", ckt, "-pattern", pat, "-cell", "INV"}, // both
		{"-circuit", ckt, "-cell", "NOPE"},                 // unknown cell
		{"-circuit", "/does/not/exist", "-cell", "INV"},    // missing file
		{"-circuit", ckt, "-cell", "INV", "-bind", "junk"}, // malformed bind
	}
	for _, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

func TestCLIJSON(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	out, err := runCLI(t, "-circuit", ckt, "-cell", "NAND2", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var insts []struct {
		Devices map[string]string `json:"devices"`
		Nets    map[string]string `json:"nets"`
	}
	if err := json.Unmarshal([]byte(out), &insts); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(insts) != 1 {
		t.Fatalf("%d instances in JSON, want 1", len(insts))
	}
	if insts[0].Devices["MP1"] != "MP1" || insts[0].Nets["Y"] != "y" {
		t.Errorf("mapping wrong: %+v", insts[0])
	}
}

func TestCLILibrarySweep(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)

	// Built-in names: the NAND2+INV circuit holds one of each.
	out, err := runCLI(t, "-circuit", ckt, "-library", "NAND2,INV")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"library: 2 patterns, 2 matcher runs", "NAND2", "INV", "total             2"} {
		if !strings.Contains(out, want) {
			t.Errorf("library output missing %q:\n%s", want, out)
		}
	}

	// -q prints the total; a -pattern .SUBCKT shadows nothing here but is
	// swept alongside the built-in, and duplicates are reported as deduped.
	pat := writeTemp(t, "p.sp", patternSrc)
	out, err = runCLI(t, "-circuit", ckt, "-pattern", pat, "-library", "NANDX,NAND2", "-q")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "2" {
		t.Errorf("quiet sweep total = %q, want 2", out)
	}

	// JSON form carries per-pattern counts in input order.
	out, err = runCLI(t, "-circuit", ckt, "-pattern", pat, "-library", "all", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Pattern string `json:"pattern"`
		Count   int    `json:"count"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(entries) != 1 || entries[0].Pattern != "NANDX" || entries[0].Count != 1 {
		t.Errorf("json sweep = %+v, want [{NANDX 1}]", entries)
	}

	// Flag validation.
	if _, err := runCLI(t, "-circuit", ckt, "-library", "INV", "-cell", "INV"); err == nil {
		t.Error("library+cell accepted, want error")
	}
	if _, err := runCLI(t, "-circuit", ckt, "-library", "INV", "-nonoverlap"); err == nil {
		t.Error("library+nonoverlap accepted, want error")
	}
	if _, err := runCLI(t, "-circuit", ckt, "-library", "NO_SUCH"); err == nil {
		t.Error("unknown library name accepted, want error")
	}
}

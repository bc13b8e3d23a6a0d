package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"subgemini"
	"subgemini/internal/gen/paperex"
	"subgemini/internal/obs"
)

// readTrace decodes a -trace file.
func readTrace(t *testing.T, path string) obs.TimelineJSON {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tl obs.TimelineJSON
	if err := json.Unmarshal(data, &tl); err != nil {
		t.Fatalf("-trace file is not timeline JSON: %v\n%s", err, data)
	}
	return tl
}

// TestCLITraceFile checks the -trace flag end to end: the run writes a
// trace, timeline JSON whose spans cover the whole run.
func TestCLITraceFile(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	tracePath := filepath.Join(t.TempDir(), "run.json")
	if _, err := runCLI(t, "-circuit", ckt, "-cell", "NAND2", "-trace", tracePath); err != nil {
		t.Fatal(err)
	}
	tl := readTrace(t, tracePath)
	if tl.Scope != obs.ScopeTrace {
		t.Errorf("trace scope = %q, want %q", tl.Scope, obs.ScopeTrace)
	}
	kinds := map[string]int{}
	for _, sp := range tl.Spans {
		kinds[sp.Kind]++
		switch sp.Kind {
		case obs.KindPhase1:
			if sp.Name != "NAND2" || sp.Attrs["circuit"] != "c" || sp.Attrs["key"] == "" {
				t.Errorf("phase1 span = %+v, want NAND2 in c with a key vertex", sp)
			}
		case obs.KindPhase2:
			if sp.Attrs["instances"] != "1" {
				t.Errorf("phase2 span = %+v, want 1 instance", sp)
			}
		}
	}
	if kinds[obs.KindPhase1] != 1 || kinds[obs.KindPhase2] != 1 || kinds[obs.KindPass] == 0 || kinds[obs.KindCandidate] == 0 {
		t.Errorf("trace span kinds %v, want one run with passes and candidates", kinds)
	}
}

// TestCLITraceStdout checks -trace - : the timeline shares stdout with the
// normal report.
func TestCLITraceStdout(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	out, err := runCLI(t, "-circuit", ckt, "-cell", "NAND2", "-q", "-trace", "-")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"scope": "trace"`) {
		t.Errorf("stdout missing the trace timeline:\n%s", out)
	}
	if !strings.Contains(out, `"kind": "candidate"`) {
		t.Errorf("stdout missing candidate spans:\n%s", out)
	}
}

// timeColumn matches the last column of a Phase II candidate row.
var timeColumn = regexp.MustCompile(`(?m)(MATCH|no match|guess limit)(\s+\d+\s+\d+\s+\d+\s+)\S+$`)

// TestCLITracePaperExample runs the paper's worked example through the
// CLI with -v and -trace.  The -trace file, rendered as tracefmt renders
// it, equals the -v output, and apart from the time column both equal the
// paper-example-trace block of ALGORITHM.md.
func TestCLITracePaperExample(t *testing.T) {
	var main, pat strings.Builder
	if err := subgemini.WriteNetlist(&main, paperex.PaperMain()); err != nil {
		t.Fatal(err)
	}
	if err := subgemini.WriteSubckt(&pat, paperex.PaperPattern()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckt, cell := filepath.Join(dir, "paperG.sp"), filepath.Join(dir, "cells.sp")
	if err := os.WriteFile(ckt, []byte(main.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cell, []byte(pat.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "run.json")
	var out, verbose strings.Builder
	if err := run([]string{"-circuit", ckt, "-pattern", cell, "-v", "-trace", tracePath}, &out, &verbose); err != nil {
		t.Fatal(err)
	}
	var rendered strings.Builder
	obs.RenderTrace(&rendered, readTrace(t, tracePath))
	if rendered.String() != verbose.String() {
		t.Errorf("-trace file renders as\n%s\nbut -v printed\n%s", rendered.String(), verbose.String())
	}

	doc, err := os.ReadFile("../../ALGORITHM.md")
	if err != nil {
		t.Fatal(err)
	}
	block := regexp.MustCompile("(?s)<!-- generated:begin paper-example-trace -->\n```text\n(.*?)```").FindSubmatch(doc)
	if block == nil {
		t.Fatal("ALGORITHM.md has no paper-example-trace block")
	}
	got := timeColumn.ReplaceAllString(strings.TrimRight(verbose.String(), "\n"), "$1$2-")
	if want := strings.TrimRight(string(block[1]), "\n"); got != want {
		t.Errorf("-v output, times stripped:\n%s\nwant ALGORITHM.md's block:\n%s", got, want)
	}
}

// TestCLITraceOnError checks that a run that fails still writes a trace
// that reads back as a timeline.
func TestCLITraceOnError(t *testing.T) {
	ckt := writeTemp(t, "c.sp", circuitSrc)
	// Two devices that share no net once the rails are global: the
	// pattern is disconnected, which Find rejects.
	pat := writeTemp(t, "p.sp", `
.SUBCKT SPLIT a b y z
MP1 y a VDD pmos
MN1 z b GND nmos
.ENDS
`)
	tracePath := filepath.Join(t.TempDir(), "run.json")
	if _, err := runCLI(t, "-circuit", ckt, "-pattern", pat, "-globals", "VDD,GND", "-trace", tracePath); err == nil {
		t.Fatal("disconnected pattern accepted")
	}
	if tl := readTrace(t, tracePath); tl.Scope != obs.ScopeTrace {
		t.Errorf("failed run's trace = %+v, want a trace timeline", tl)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"subgemini"
	"subgemini/internal/obs"
)

// traceOf matches the NAND2 library cell against a small circuit under a
// trace, through the facade alone, and returns the trace.
func traceOf(t *testing.T) obs.TimelineJSON {
	t.Helper()
	f, err := subgemini.ParseNetlist(`
.GLOBAL VDD GND
MP1 y a VDD pmos
MP2 y b VDD pmos
MN1 y a n1 nmos
MN2 n1 b GND nmos
.END
`, "c.sp")
	if err != nil {
		t.Fatal(err)
	}
	ckt, err := f.MainCircuit("chip")
	if err != nil {
		t.Fatal(err)
	}
	tr := subgemini.NewTrace("chip")
	if _, err := subgemini.Find(ckt, subgemini.Cell("NAND2").Pattern(), subgemini.Options{Observe: tr}); err != nil {
		t.Fatal(err)
	}
	tl := tr.Timeline()
	tl.Finish(0)
	return tl.JSON()
}

// encode writes a timeline as `subgemini -trace` does.
func encode(t *testing.T, tl obs.TimelineJSON) string {
	t.Helper()
	data, err := json.MarshalIndent(tl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

func TestTracefmtFromFileAndStdin(t *testing.T) {
	src := encode(t, traceOf(t))
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	var fromFile, fromStdin strings.Builder
	if err := run([]string{path}, strings.NewReader(""), &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run(nil, strings.NewReader(src), &fromStdin); err != nil {
		t.Fatal(err)
	}
	if fromFile.String() != fromStdin.String() {
		t.Error("file and stdin renderings differ")
	}
	out := fromFile.String()
	for _, want := range []string{
		"run: pattern NAND2 in circuit chip",
		"Phase I relabeling:",
		"Phase II candidates:",
		"MATCH",
		"run end: 1 instance(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestTraceRoundTrip: a trace written as JSON reads back as the same
// timeline, and tracefmt renders it exactly as the live trace renders.
func TestTraceRoundTrip(t *testing.T) {
	tl := traceOf(t)
	src := encode(t, tl)
	var back obs.TimelineJSON
	if err := json.Unmarshal([]byte(src), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tl) {
		t.Errorf("trace round-tripped as\n%+v\nwant\n%+v", back, tl)
	}
	var live, read strings.Builder
	subgemini.RenderTrace(&live, tl)
	if err := run(nil, strings.NewReader(src), &read); err != nil {
		t.Fatal(err)
	}
	if read.String() != live.String() {
		t.Errorf("tracefmt rendered\n%s\nthe live trace renders\n%s", read.String(), live.String())
	}
}

// TestTracefmtRequestTimeline: a /debug/requests/{id} payload still renders
// as an indented span table.
func TestTracefmtRequestTimeline(t *testing.T) {
	tl := obs.NewTimeline("r-7", "http", "POST", "/v1/match")
	get := tl.Begin(obs.NoSpan, obs.KindStoreGet, "default")
	tl.End(get)
	p1 := tl.Begin(obs.NoSpan, obs.KindPhase1, "NAND2")
	tl.AttrInt(p1, "cv_size", 3)
	tl.End(p1)
	tl.Finish(200)
	src, err := json.Marshal(map[string]any{"request_id": "r-7", "timelines": []obs.TimelineJSON{tl.JSON()}})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(nil, strings.NewReader(string(src)), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"request r-7  http  POST /v1/match  status=200", "store-get (default)", "phase1 (NAND2)  cv_size=3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("rendering missing %q:\n%s", want, out.String())
		}
	}
}

// TestTracefmtRejectsJSONL: the retired subgemini-trace/v1 JSON Lines
// stream, and anything else that is not timeline JSON, is refused with an
// error that names the timeline format.
func TestTracefmtRejectsJSONL(t *testing.T) {
	for _, src := range []string{
		`{"schema":"subgemini-trace/v1"}` + "\n" + `{"kind":"run_start","circuit":"chip","pattern":"NAND2"}` + "\n",
		`{"schema":"subgemini-trace/v1"}` + "\n",
		"",
	} {
		var out strings.Builder
		err := run(nil, strings.NewReader(src), &out)
		if err == nil || !strings.Contains(err.Error(), "timeline JSON") {
			t.Errorf("input %q: err = %v, want one naming the timeline format", src, err)
		}
	}
}

func TestTracefmtErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("not a trace\n"), &out); err == nil {
		t.Error("malformed stream accepted")
	}
	if err := run([]string{"a", "b"}, strings.NewReader(""), &out); err == nil {
		t.Error("two arguments accepted")
	}
	if err := run([]string{filepath.Join(t.TempDir(), "missing.json")}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file accepted")
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/stdcell"
)

// refInstancesJSON is the map-building conversion the renderer replaced,
// kept as its reference: with writeJSON it produces the bytes the
// renderer must reproduce.
func refInstancesJSON(insts []*core.Instance) []InstanceJSON {
	out := make([]InstanceJSON, 0, len(insts))
	for _, inst := range insts {
		ji := InstanceJSON{Devices: make(map[string]string), Nets: make(map[string]string)}
		for sd, gd := range inst.DevMap {
			ji.Devices[sd.Name] = gd.Name
		}
		for sn, gn := range inst.NetMap {
			ji.Nets[sn.Name] = gn.Name
		}
		out = append(out, ji)
	}
	return out
}

// refMatchResponse is the public response the reference path built.
func refMatchResponse(r *matchResult) *MatchResponse {
	return &MatchResponse{
		Circuit:     r.Circuit,
		Pattern:     r.Pattern,
		Count:       r.Count,
		Instances:   refInstancesJSON(r.Instances),
		Stats:       r.Stats,
		CacheHit:    r.CacheHit,
		Version:     r.Version,
		Incremental: r.Incremental,
	}
}

// checkRendered compares renderMatch's bytes with writeJSON over the
// reference conversion, and the compact list encoding with encoding/json
// over the reference maps.
func checkRendered(t *testing.T, what string, r *matchResult) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeRendered(got, renderMatch(r))
	writeJSON(want, http.StatusOK, refMatchResponse(r))
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%s: rendered match differs from the reference at byte %d:\n got: %q\nwant: %q",
			what, firstByteDiff(got.Body.Bytes(), want.Body.Bytes()), excerpt(got.Body.Bytes(), want.Body.Bytes()), excerpt(want.Body.Bytes(), got.Body.Bytes()))
	}
	if got.Header().Get("Content-Type") != want.Header().Get("Content-Type") || got.Code != want.Code {
		t.Fatalf("%s: status %d %q, want %d %q", what, got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	compact, _ := json.Marshal(r.Instances)
	ref, _ := json.Marshal(refInstancesJSON(r.Instances))
	if !bytes.Equal(compact, ref) {
		t.Fatalf("%s: compact instances differ from the reference at byte %d", what, firstByteDiff(compact, ref))
	}
}

func firstByteDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// excerpt returns a's bytes around its first difference from b.
func excerpt(a, b []byte) []byte {
	i := firstByteDiff(a, b)
	return a[max(0, i-40):min(len(a), i+40)]
}

func matchOf(t *testing.T, g, pat *graph.Circuit, opts core.Options) *matchResult {
	t.Helper()
	res, err := core.Find(g, pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &matchResult{Circuit: g.Name, Pattern: pat.Name, Count: len(res.Instances),
		Instances: res.Instances, Stats: statsJSON(&res.Report)}
}

// TestWriteMatchMatchesReference: POST /v1/match bytes equal the
// reference's for every library cell on rand1000 and for INV on rand4000
// (about two thousand instances).
func TestWriteMatchMatchesReference(t *testing.T) {
	g := gen.RandomLogic(1000, 24, 3).C
	for _, cell := range stdcell.All() {
		r := matchOf(t, g, cell.Pattern(), core.Options{Globals: rails})
		r.CacheHit = cell.Name < "M"
		checkRendered(t, "rand1000/"+cell.Name, r)
	}
	if testing.Short() {
		t.Skip("rand4000 in -short mode")
	}
	r := matchOf(t, gen.RandomLogic(4000, 32, 11).C, stdcell.INV.Pattern(), core.Options{Globals: rails})
	if r.Count < 1000 {
		t.Fatalf("INV on rand4000: %d instances, want over a thousand", r.Count)
	}
	checkRendered(t, "rand4000/INV", r)
}

// TestWriteMatchEdgeCases covers an empty result, every optional field set,
// and names that need escaping on both sides of the instance maps.
func TestWriteMatchEdgeCases(t *testing.T) {
	g := gen.RandomLogic(60, 8, 5).C
	checkRendered(t, "nil instances", &matchResult{Circuit: "c", Pattern: "p"})
	empty := matchOf(t, g, stdcell.DFF.Pattern(), core.Options{Globals: rails})
	if empty.Count != 0 {
		t.Fatalf("DFF in random logic: %d instances, want none", empty.Count)
	}
	checkRendered(t, "empty result", empty)

	full := matchOf(t, g, stdcell.NAND2.Pattern(), core.Options{Globals: rails})
	full.CacheHit = true
	full.Version = 7
	full.Stats.RegionRadius, full.Stats.RegionMaxSize, full.Stats.RegionVertices = 3, 41, 900
	full.Stats.KeyVertex = "MN1"
	full.Stats.IncrementalMode, full.Stats.Replayed, full.Stats.Recomputed = "replay", 12, 3
	full.Incremental = &IncrementalJSON{Mode: "replay", BaseVersion: 6, Replayed: 12, Recomputed: 3}
	checkRendered(t, "every optional field", full)

	// One list whose instances map different pattern vertices (never the
	// case for one match): the key order is re-derived where they change,
	// by count (INV then NAND2) and by name at equal counts (INV then a
	// renamed INV).
	inv := matchOf(t, g, stdcell.INV.Pattern(), core.Options{Globals: rails})
	renamed := &stdcell.CellDef{Name: "INV2", Ports: []string{"I", "O", "VDD", "GND"}, Mos: []stdcell.MOS{
		{Name: "Mup", Type: "pmos", D: "O", G: "I", S: "VDD"},
		{Name: "Mdown", Type: "nmos", D: "O", G: "I", S: "GND"},
	}}
	inv2 := matchOf(t, g, renamed.Pattern(), core.Options{Globals: rails})
	if inv.Count < 2 || full.Count < 1 || inv2.Count < 1 {
		t.Fatalf("mixed fixture: %d INV, %d NAND2, %d renamed INV instances", inv.Count, full.Count, inv2.Count)
	}
	mixed := &matchResult{Circuit: "c", Pattern: "mixed"}
	mixed.Instances = append(mixed.Instances, inv.Instances[0], full.Instances[0], inv.Instances[1], inv2.Instances[0])
	mixed.Count = len(mixed.Instances)
	checkRendered(t, "mixed pattern vertices", mixed)

	// Escaping: each name below carries one character encoding/json
	// escapes or passes through specially — HTML-sensitive characters,
	// quotes, backslashes, control characters, non-ASCII, U+2028/U+2029 and
	// invalid UTF-8 — in pattern names (map keys) and circuit names (map
	// values) alike.
	buf := &stdcell.CellDef{
		Name:  "BUF<&>",
		Ports: []string{"A\\", "Y\u2028", "VDD", "GND"},
		Mos: []stdcell.MOS{
			{Name: "M<", Type: "pmos", D: "x\u00e9", G: "A\\", S: "VDD"},
			{Name: "M&", Type: "nmos", D: "x\u00e9", G: "A\\", S: "GND"},
			{Name: "M>", Type: "pmos", D: "Y\u2028", G: "x\u00e9", S: "VDD"},
			{Name: "M\"", Type: "nmos", D: "Y\u2028", G: "x\u00e9", S: "GND"},
		},
	}
	main := graph.New("chip\u2029")
	rail := map[string]*graph.Net{"VDD": main.AddNet("VDD"), "GND": main.AddNet("GND")}
	specials := []string{"<", ">", "&", "\"", "\\", "\u00fc", "\u2028", "\u2029", "\t", "\x01", "\x7f", "\xff"}
	prev := main.AddNet("in")
	for i, sp := range specials {
		next := main.AddNet(fmt.Sprintf("n%s%d", sp, i))
		buf.MustInstantiate(main, "u"+sp, map[string]*graph.Net{"A\\": prev, "Y\u2028": next, "VDD": rail["VDD"], "GND": rail["GND"]})
		// Rename the internal net so values carry the special too.
		if err := main.RenameNet(main.DeviceByName("u" + sp + ".M<").Pins[0].Net.Name, fmt.Sprintf("x%s%d", sp, i)); err != nil {
			t.Fatal(err)
		}
		prev = next
	}
	// Adjacent buffers form further instances across their boundary.
	r := matchOf(t, main, buf.Pattern(), core.Options{Globals: rails})
	if r.Count < len(specials) {
		t.Fatalf("escaping fixture: %d instances, want at least %d", r.Count, len(specials))
	}
	r.Version = 1
	checkRendered(t, "escaped names", r)
}

// TestResponseMirrorsMatchPublicTypes pins the server's response mirrors
// to the public types clients decode into: the same JSON field names,
// options and order, with only the instance lists' Go types differing.
func TestResponseMirrorsMatchPublicTypes(t *testing.T) {
	for _, pair := range [][2]any{
		{matchResult{}, MatchResponse{}},
		{batchItem{}, BatchItem{}},
		{batchResult{}, BatchResponse{}},
		{sweepPatternResult{}, SweepPatternJSON{}},
		{sweepResult{}, SweepResponse{}},
	} {
		mirror, public := reflect.TypeOf(pair[0]), reflect.TypeOf(pair[1])
		if mirror.NumField() != public.NumField() {
			t.Fatalf("%v has %d fields, %v has %d", mirror, mirror.NumField(), public, public.NumField())
		}
		for i := range mirror.NumField() {
			mf, pf := mirror.Field(i), public.Field(i)
			if mf.Name != pf.Name || mf.Tag != pf.Tag {
				t.Errorf("%v field %d is %s %q, %v has %s %q", mirror, i, mf.Name, mf.Tag, public, pf.Name, pf.Tag)
			}
		}
	}
}

// TestBulkResponsesDecodeToReference: batch items, match and batch job
// results, and sweep include_instances go through the renderer inside
// encoding/json; each decodes into the public types with instance lists
// equal to the reference conversion of an in-process run.
func TestBulkResponsesDecodeToReference(t *testing.T) {
	d := gen.RandomLogic(300, 12, 9)
	s := mustNew(t, Config{Circuit: d.C.Clone(), Globals: rails})
	patterns := []string{"INV", "NAND2", "NOR2", "AOI21"}
	want := make(map[string][]InstanceJSON)
	for _, name := range patterns {
		res, err := core.Find(d.C.Clone(), stdcell.Get(name).Pattern(), core.Options{Globals: rails})
		if err != nil {
			t.Fatal(err)
		}
		want[name] = refInstancesJSON(res.Instances)
	}
	check := func(what, pattern string, got []InstanceJSON) {
		t.Helper()
		if len(want[pattern]) == 0 {
			t.Fatalf("%s %s: the fixture has no instances", what, pattern)
		}
		if !reflect.DeepEqual(got, want[pattern]) {
			t.Errorf("%s %s: %d decoded instances differ from the reference's %d", what, pattern, len(got), len(want[pattern]))
		}
	}

	batch := BatchRequest{}
	for _, name := range patterns {
		batch.Requests = append(batch.Requests, MatchRequest{Pattern: name})
	}
	rec := do(t, s, "POST", "/v1/match/batch", batch)
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d, %v", rec.Code, err)
	}
	for i, item := range br.Results {
		check(fmt.Sprintf("batch item %d", i), patterns[i], item.Match.Instances)
	}

	v := waitJob(t, s, submitJob(t, s, JobRequest{Kind: jobKindMatch, Match: &MatchRequest{Pattern: "NOR2"}}).ID)
	var mr MatchResponse
	if err := json.Unmarshal(v.Result, &mr); err != nil {
		t.Fatalf("match job result: %v", err)
	}
	check("match job", "NOR2", mr.Instances)

	v = waitJob(t, s, submitJob(t, s, JobRequest{Kind: jobKindBatch, Batch: &batch}).ID)
	br = BatchResponse{}
	if err := json.Unmarshal(v.Result, &br); err != nil {
		t.Fatalf("batch job result: %v", err)
	}
	for i, item := range br.Results {
		check(fmt.Sprintf("batch job item %d", i), patterns[i], item.Match.Instances)
	}

	rec = do(t, s, "POST", "/v1/sweep", SweepRequest{Patterns: patterns, IncludeInstances: true})
	sr := decodeSweep(t, rec.Body.Bytes())
	for i, pr := range sr.Results {
		check("sweep result", patterns[i], pr.Instances)
	}
}

// BenchmarkRenderMatch measures the single-match response path on INV in
// rand4000: direct renders from core.Instances into the indented body, and
// reference is the map-building conversion plus writeJSON it replaced.
func BenchmarkRenderMatch(b *testing.B) {
	g := gen.RandomLogic(4000, 32, 11).C
	res, err := core.Find(g, stdcell.INV.Pattern(), core.Options{Globals: rails})
	if err != nil {
		b.Fatal(err)
	}
	r := &matchResult{Circuit: g.Name, Pattern: "INV", Count: len(res.Instances),
		Instances: res.Instances, Stats: statsJSON(&res.Report)}
	w := discardResponse{header: make(http.Header)}
	for _, bc := range []struct {
		name   string
		render func()
	}{
		{"direct", func() { writeRendered(w, renderMatch(r)) }},
		{"reference", func() { writeJSON(w, http.StatusOK, refMatchResponse(r)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.render()
			}
		})
	}
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d discardResponse) WriteHeader(int)             {}

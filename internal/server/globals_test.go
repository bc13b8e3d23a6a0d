package server

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/jobs"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

// TestRequestGlobalsLeaveStoredCircuit: a request's globals apply to that
// request only.  One server runs INV on the nandNetlist chip, then INV and
// a sweep with "globals":["y"], then INV again, takes two PATCHes that
// rewire MN3's drain away and back, and reboots on its data dir.  The used
// server, a fresh one and the rebooted one each find the chip's one
// inverter, and the stored circuit keeps listing only the globals it was
// uploaded with.
func TestRequestGlobalsLeaveStoredCircuit(t *testing.T) {
	dir := t.TempDir()
	used, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustNew(t, Config{})
	for _, s := range []*Server{used, fresh} {
		if rec := do(t, s, "PUT", "/v1/circuits/chip", nandNetlist); rec.Code != http.StatusOK {
			t.Fatalf("upload: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	inv := func(s *Server, what string, globals []string) int {
		t.Helper()
		rec := do(t, s, "POST", "/v1/match", MatchRequest{Circuit: "chip", Pattern: "INV", Globals: globals})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, rec.Code, rec.Body.String())
		}
		return decodeMatch(t, rec).Count
	}
	globalsOf := func(s *Server, what string) []string {
		t.Helper()
		rec := do(t, s, "GET", "/v1/circuits/chip", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: describe: status %d: %s", what, rec.Code, rec.Body.String())
		}
		var info CircuitInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		got := slices.Clone(info.Globals)
		slices.Sort(got)
		return got
	}
	wantGlobals := []string{"GND", "VDD"}

	if n := inv(used, "first INV", nil); n != 1 {
		t.Fatalf("first INV found %d instances, want 1", n)
	}
	inv(used, `INV with "globals":["y"]`, []string{"y"})
	if rec := do(t, used, "POST", "/v1/sweep", SweepRequest{Circuit: "chip", Patterns: []string{"INV", "NAND2"}, Globals: []string{"y"}}); rec.Code != http.StatusOK {
		t.Fatalf(`sweep with "globals":["y"]: status %d: %s`, rec.Code, rec.Body.String())
	}
	if n := inv(used, "INV after the y requests", nil); n != 1 {
		t.Errorf(`INV after requests with "globals":["y"] found %d instances, want 1`, n)
	}
	for _, net := range []string{"spare", "z"} {
		if rec := do(t, used, "PATCH", "/v1/circuits/chip", rewireOps("MN3", net)); rec.Code != http.StatusOK {
			t.Fatalf("patch MN3/0 -> %s: status %d: %s", net, rec.Code, rec.Body.String())
		}
	}
	if n := inv(used, "INV on the used server", nil); n != 1 {
		t.Errorf("used server found %d instances, want 1", n)
	}
	if got := globalsOf(used, "used server"); !slices.Equal(got, wantGlobals) {
		t.Errorf("used server lists globals %v, want %v", got, wantGlobals)
	}
	if n := inv(fresh, "INV on the fresh server", nil); n != 1 {
		t.Errorf("fresh server found %d instances, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := used.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rebooted := mustNew(t, Config{DataDir: dir})
	if n := inv(rebooted, "INV on the rebooted server", nil); n != 1 {
		t.Errorf("rebooted server found %d instances, want 1", n)
	}
	if got := globalsOf(rebooted, "rebooted server"); !slices.Equal(got, wantGlobals) {
		t.Errorf("rebooted server lists globals %v, want %v", got, wantGlobals)
	}
}

// TestExtractJobNetlistMatchesLibrary: an extract job with "globals",
// "store_as" and "include_netlist" on a circuit uploaded without a .GLOBAL
// card returns exactly the netlist extract.Cells writes in process, its
// .GLOBAL VDD GND line included, and the stored gate-level circuit lists
// those globals while the uploaded one keeps none.
func TestExtractJobNetlistMatchesLibrary(t *testing.T) {
	var src strings.Builder
	if err := netlist.WriteCircuit(&src, gen.RandomLogic(24, 4, 3).C); err != nil {
		t.Fatal(err)
	}
	f, err := netlist.ParseString(src.String(), "chip")
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.MainCircuit("chip")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := extract.Cells(c, stdcell.All(), extract.Options{Globals: rails}); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := netlist.WriteCircuit(&want, c); err != nil {
		t.Fatal(err)
	}

	s := mustNew(t, Config{})
	if rec := do(t, s, "PUT", "/v1/circuits/chip", src.String()); rec.Code != http.StatusOK {
		t.Fatalf("upload: status %d: %s", rec.Code, rec.Body.String())
	}
	view := waitJob(t, s, submitJob(t, s, JobRequest{Kind: "extract", Extract: &ExtractRequest{
		Circuit: "chip", Globals: rails, StoreAs: "gates", IncludeNetlist: true}}).ID)
	if view.State != jobs.Done {
		t.Fatalf("extract job ended %s: %s", view.State, view.Error)
	}
	var er ExtractResponse
	if err := json.Unmarshal(view.Result, &er); err != nil {
		t.Fatal(err)
	}
	if er.Netlist != want.String() {
		t.Errorf("job netlist:\n%s\nwant what extract.Cells writes:\n%s", er.Netlist, want.String())
	}
	if !strings.Contains(er.Netlist, "\n.GLOBAL VDD GND\n") {
		t.Errorf("job netlist does not declare the rails:\n%s", er.Netlist)
	}
	for name, want := range map[string][]string{"gates": {"GND", "VDD"}, "chip": nil} {
		var info CircuitInfo
		if err := json.Unmarshal(do(t, s, "GET", "/v1/circuits/"+name, nil).Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		got := slices.Clone(info.Globals)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s lists globals %v, want %v", name, got, want)
		}
	}
}

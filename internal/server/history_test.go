package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/jobs"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

var (
	historySeed = flag.Int64("history.seed", 1, "TestDaemonHistory: seed of the first history")
	historyTime = flag.Duration("history.time", 0, "TestDaemonHistory: run successive seeds for this long (0: one history)")
)

// historySteps is the length of one history.
const historySteps = 400

// TestDaemonHistory drives one in-process server through a seeded random
// history and checks every answer against an oracle that shares only the
// netlist reader and delta.Apply with it.  A history mixes flat and
// hierarchical uploads, PATCH batches (some invalid), matches with random
// globals, bind, nonoverlap, max and workers, sweeps (a quarter of the
// matches and sweeps as jobs), extract jobs with store_as, and graceful
// restarts on the same data directory, under a store
// budget small enough to demote and reload circuits.
//
// The oracle keeps a recipe per stored circuit (see mirror) and rebuilds
// the circuit from it for every check, so no answer can depend on state an
// earlier request left behind, and runs core.Find, or extract.Specs, on the
// rebuilt copy.  By default one history runs for a few seconds;
// -history.time runs successive seeds from -history.seed for longer.
func TestDaemonHistory(t *testing.T) {
	deadline := time.Now().Add(*historyTime)
	for seed := *historySeed; ; seed++ {
		runHistory(t, seed)
		if t.Failed() || !time.Now().Before(deadline) {
			return
		}
	}
}

// mirror is the oracle's recipe for one stored circuit: an upload's source
// text, or the extraction a store_as result came from, then the edit
// batches applied since.
type mirror struct {
	name  string // MainCircuit name: the store key it was uploaded under
	src   string
	from  *mirror // extraction source, frozen at the extraction
	cells []string
	exts  []string // the extraction's request globals
	ops   [][]delta.Op
}

// build rebuilds the circuit from scratch: parse (or extract), then apply
// the edit batches, marking the store-level globals after each step as the
// store does.
func (mr *mirror) build(t *testing.T) *graph.Circuit {
	t.Helper()
	var c *graph.Circuit
	if mr.from == nil {
		f, err := netlist.ParseString(mr.src, mr.name)
		if err != nil {
			t.Fatal(err)
		}
		if c, err = f.MainCircuit(mr.name); err != nil {
			t.Fatal(err)
		}
	} else {
		c = mr.from.build(t)
		if _, err := extract.Specs(c, historySpecs(mr.cells), extract.Options{Globals: mr.exts}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; ; i++ {
		for _, g := range rails {
			c.MarkGlobal(g)
		}
		if i == len(mr.ops) {
			return c
		}
		if _, err := delta.Apply(c, uint64(i+2), mr.ops[i]); err != nil {
			t.Fatalf("oracle replay of batch %d on %s: %v", i+1, mr.name, err)
		}
	}
}

// historyCells are the library cells matches, sweeps and extractions pick
// from; historyInline is an uploaded pattern that declares its own rails.
var historyCells = []string{"INV", "BUF", "NAND2", "NOR2", "AOI21", "XOR2", "MUX2", "AND2"}

const historyInline = `
.GLOBAL VDD GND
.SUBCKT HINV A Y
MP1 Y A VDD pmos
MN1 Y A GND nmos
.ENDS
`

// historySpecs builds extraction specs straight from the cell definitions
// (the whole library for none), sharing no template cache.
func historySpecs(cells []string) []extract.Spec {
	defs := stdcell.All()
	if len(cells) > 0 {
		defs = nil
		for _, name := range cells {
			defs = append(defs, stdcell.Get(name))
		}
	}
	specs := make([]extract.Spec, len(defs))
	for i, d := range defs {
		specs[i] = extract.Spec{Name: d.Name, Ports: d.Ports, Pattern: d.Pattern()}
	}
	return specs
}

// historyPattern compiles a match pattern for the oracle.
func historyPattern(t *testing.T, req *MatchRequest) *graph.Circuit {
	t.Helper()
	if req.Netlist == "" {
		return stdcell.Get(req.Pattern).Pattern()
	}
	f, err := netlist.ParseString(req.Netlist, "pattern")
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Pattern("HINV")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// canonInstances renders instances as sorted pattern=image lists, in
// report order.
func canonInstances(l []*core.Instance) []string {
	out := make([]string, len(l))
	for i, in := range l {
		var kv []string
		for p, g := range in.DevMap {
			kv = append(kv, "d "+p.Name+"="+g.Name)
		}
		for p, g := range in.NetMap {
			kv = append(kv, "n "+p.Name+"="+g.Name)
		}
		sort.Strings(kv)
		out[i] = strings.Join(kv, " ")
	}
	return out
}

func canonJSON(l []InstanceJSON) []string {
	out := make([]string, len(l))
	for i, in := range l {
		var kv []string
		for p, g := range in.Devices {
			kv = append(kv, "d "+p+"="+g)
		}
		for p, g := range in.Nets {
			kv = append(kv, "n "+p+"="+g)
		}
		sort.Strings(kv)
		out[i] = strings.Join(kv, " ")
	}
	return out
}

// history is one seeded run's state.
type history struct {
	t       *testing.T
	rng     *rand.Rand
	seed    int64
	step    int
	cfg     Config
	s       *Server
	mirrors map[string]*mirror
	fresh   int // counter for fresh net and device names

	// ran counts what the history did, so a vacuous one shows in -v.
	ran map[string]int
}

func (h *history) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("seed %d step %d: %s", h.seed, h.step, fmt.Sprintf(format, args...))
}

func (h *history) errorf(format string, args ...any) {
	h.t.Helper()
	h.t.Errorf("seed %d step %d: %s", h.seed, h.step, fmt.Sprintf(format, args...))
}

func runHistory(t *testing.T, seed int64) {
	h := &history{
		t:       t,
		rng:     rand.New(rand.NewSource(seed)),
		seed:    seed,
		cfg:     Config{Globals: rails, DataDir: t.TempDir(), MaxStoreBytes: 300_000},
		mirrors: map[string]*mirror{},
		ran:     map[string]int{},
	}
	var err error
	if h.s, err = New(h.cfg); err != nil {
		t.Fatal(err)
	}
	defer func() { h.close() }()
	for h.step = 0; h.step < historySteps && !t.Failed(); h.step++ {
		switch r := h.rng.Intn(100); {
		case h.step == 0 || r < 10:
			h.upload()
		case r < 35:
			h.patch()
		case r < 70:
			h.match()
		case r < 82:
			h.sweep()
		case r < 92:
			h.extract()
		default:
			h.restart()
		}
	}
	t.Logf("seed %d: %v", seed, h.ran)
}

func (h *history) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.s.Close(ctx); err != nil {
		h.errorf("close: %v", err)
	}
}

// restart closes the server gracefully and boots a new one on the same
// data directory; every stored circuit must come back as its mirror.
func (h *history) restart() {
	h.ran["restart"]++
	h.close()
	var err error
	if h.s, err = New(h.cfg); err != nil {
		h.fatalf("reboot: %v", err)
	}
	for _, name := range h.names() {
		h.describe(name)
	}
}

func (h *history) names() []string {
	out := make([]string, 0, len(h.mirrors))
	for name := range h.mirrors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (h *history) pick() (string, *mirror) {
	names := h.names()
	name := names[h.rng.Intn(len(names))]
	return name, h.mirrors[name]
}

// describe checks GET /v1/circuits/{name} against the mirror: shape, edit
// version and the globals the circuit carries.
func (h *history) describe(name string) {
	h.t.Helper()
	mr := h.mirrors[name]
	c := mr.build(h.t)
	rec := do(h.t, h.s, "GET", "/v1/circuits/"+name, nil)
	if rec.Code != http.StatusOK {
		h.fatalf("describe %s: status %d: %s", name, rec.Code, rec.Body.String())
	}
	var info CircuitInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		h.fatalf("describe %s: %v", name, err)
	}
	var want []string
	for _, n := range c.Globals() {
		want = append(want, n.Name)
	}
	got := slices.Clone(info.Globals)
	sort.Strings(got)
	sort.Strings(want)
	if info.Devices != c.NumDevices() || info.Nets != c.NumNets() || info.Version != uint64(1+len(mr.ops)) || !slices.Equal(got, want) {
		h.errorf("%s is %d devices, %d nets, version %d, globals %v; the oracle has %d, %d, %d, %v",
			name, info.Devices, info.Nets, info.Version, got, c.NumDevices(), c.NumNets(), 1+len(mr.ops), want)
	}
}

// upload stores a flat or hierarchical netlist under one of three names.
func (h *history) upload() {
	name := fmt.Sprintf("c%d", h.rng.Intn(3))
	var src string
	if h.rng.Intn(3) == 0 {
		src = h.hierSource()
	} else {
		d := gen.RandomLogic(16+h.rng.Intn(40), 4+h.rng.Intn(4), h.rng.Int63())
		if h.rng.Intn(2) == 0 {
			for _, g := range rails {
				d.C.MarkGlobal(g)
			}
		}
		var b strings.Builder
		if err := netlist.WriteCircuit(&b, d.C); err != nil {
			h.fatalf("%v", err)
		}
		src = b.String()
	}
	if rec := do(h.t, h.s, "PUT", "/v1/circuits/"+name, src); rec.Code != http.StatusOK {
		h.fatalf("upload %s: status %d: %s", name, rec.Code, rec.Body.String())
	}
	h.mirrors[name] = &mirror{name: name, src: src}
	h.ran["upload"]++
	h.describe(name)
}

// hierSource writes a hierarchical netlist: library cells as .SUBCKTs and
// a random chain of instances.
func (h *history) hierSource() string {
	defs := []*stdcell.CellDef{stdcell.INV, stdcell.NAND2, stdcell.NOR2}
	var b strings.Builder
	if h.rng.Intn(2) == 0 {
		b.WriteString(".GLOBAL VDD GND\n")
	}
	for _, d := range defs {
		fmt.Fprintf(&b, ".SUBCKT %s %s\n", d.Name, strings.Join(d.Ports, " "))
		for _, m := range d.Mos {
			fmt.Fprintf(&b, "%s %s %s %s %s\n", m.Name, m.D, m.G, m.S, m.Type)
		}
		b.WriteString(".ENDS\n")
	}
	nets := []string{"in0", "in1", "in2"}
	for i, n := 0, 8+h.rng.Intn(24); i < n; i++ {
		d := defs[h.rng.Intn(len(defs))]
		fmt.Fprintf(&b, "X%d", i)
		out := fmt.Sprintf("w%d", i)
		for _, p := range d.Ports {
			switch p {
			case "VDD", "GND":
				b.WriteString(" " + p)
			case "Y":
				b.WriteString(" " + out)
			default:
				b.WriteString(" " + nets[h.rng.Intn(len(nets))])
			}
		}
		fmt.Fprintf(&b, " %s\n", d.Name)
		nets = append(nets, out)
	}
	b.WriteString(".END\n")
	return b.String()
}

// freshName returns a net or device name no circuit uses yet.
func (h *history) freshName(prefix string) string {
	h.fresh++
	return fmt.Sprintf("%s%d", prefix, h.fresh)
}

// randomNet names a random net of c, or a fresh one.
func (h *history) randomNet(c *graph.Circuit) string {
	if h.rng.Intn(6) == 0 {
		return h.freshName("h")
	}
	return c.Nets[h.rng.Intn(len(c.Nets))].Name
}

// randomOp draws one edit op against c.  It need not apply: the caller
// validates it on its own copy.
func (h *history) randomOp(c *graph.Circuit) delta.Op {
	d := c.Devices[h.rng.Intn(len(c.Devices))]
	switch h.rng.Intn(7) {
	case 0, 1:
		return delta.Op{Op: delta.OpRewirePin, Device: d.Name, Pin: h.rng.Intn(len(d.Pins)), Net: h.randomNet(c)}
	case 2:
		classes := make([]int, len(d.Pins))
		nets := make([]string, len(d.Pins))
		for i, p := range d.Pins {
			classes[i] = int(p.Class)
			nets[i] = h.randomNet(c)
		}
		return delta.Op{Op: delta.OpAddDevice, Name: h.freshName("M"), Type: d.Type, Classes: classes, Nets: nets}
	case 3:
		return delta.Op{Op: delta.OpRemoveDevice, Name: d.Name}
	case 4:
		return delta.Op{Op: delta.OpAddNet, Name: h.freshName("h"), Port: h.rng.Intn(4) == 0, Global: h.rng.Intn(4) == 0}
	case 5:
		return delta.Op{Op: delta.OpRenameNet, Old: h.randomNet(c), New: h.freshName("r")}
	default:
		return delta.Op{Op: delta.OpRemoveNet, Name: h.randomNet(c)}
	}
}

// patch sends one batch of edit ops.  The oracle applies the batch to its
// own copy first: a batch delta.Apply refuses must come back 400 and leave
// the circuit as it was.
func (h *history) patch() {
	name, mr := h.pick()
	c := mr.build(h.t)
	var ops []delta.Op
	for n := 1 + h.rng.Intn(3); len(ops) < n; {
		op := h.randomOp(c)
		if len(c.Devices) <= 8 && op.Op == delta.OpRemoveDevice {
			continue
		}
		ops = append(ops, op)
	}
	_, err := delta.Apply(c, uint64(len(mr.ops)+2), ops)
	rec := do(h.t, h.s, "PATCH", "/v1/circuits/"+name, PatchRequest{Ops: ops})
	switch {
	case err == nil && rec.Code == http.StatusOK:
		mr.ops = append(mr.ops, ops)
		h.ran["patch"]++
	case err != nil && rec.Code == http.StatusBadRequest:
		h.ran["patch-refused"]++
	default:
		h.fatalf("patch %s %+v: status %d (%s); the oracle's delta.Apply says %v", name, ops, rec.Code, rec.Body.String(), err)
	}
	h.describe(name)
}

// randomGlobals draws a request's globals: none, a rail, nets of c, or a
// name c lacks.
func (h *history) randomGlobals(c *graph.Circuit) []string {
	switch h.rng.Intn(6) {
	case 0, 1:
		return nil
	case 2:
		return []string{"VDD"}
	case 3:
		return []string{c.Nets[h.rng.Intn(len(c.Nets))].Name}
	case 4:
		return []string{c.Nets[h.rng.Intn(len(c.Nets))].Name, c.Nets[h.rng.Intn(len(c.Nets))].Name}
	default:
		return []string{"nosuch"}
	}
}

// send posts a match or sweep request to its endpoint or, one time in
// four, submits it as the equivalent job, whose lane must answer the same.
// It returns the response status and body; a job that ends done reads as
// 200 with its result, and a failed one as 400 with its error (the only
// failure the history provokes is a refused match).
func (h *history) send(path string, job JobRequest, req any) (int, []byte) {
	h.t.Helper()
	if h.rng.Intn(4) > 0 {
		rec := do(h.t, h.s, "POST", path, req)
		return rec.Code, rec.Body.Bytes()
	}
	h.ran[job.Kind+"-job"]++
	view := waitJob(h.t, h.s, submitJob(h.t, h.s, job).ID)
	if view.State != jobs.Done {
		return http.StatusBadRequest, []byte(view.Error)
	}
	return http.StatusOK, view.Result
}

// match runs one /v1/match, or a match job, and checks it against
// core.Find on the rebuilt circuit.
func (h *history) match() {
	name, mr := h.pick()
	c := mr.build(h.t)
	req := MatchRequest{Circuit: name, Globals: h.randomGlobals(c)}
	if h.rng.Intn(6) == 0 {
		req.Netlist = historyInline
	} else {
		req.Pattern = historyCells[h.rng.Intn(len(historyCells))]
	}
	pat := historyPattern(h.t, &req)
	if h.rng.Intn(5) == 0 {
		port := pat.Ports()[h.rng.Intn(len(pat.Ports()))]
		req.Bind = map[string]string{port.Name: c.Nets[h.rng.Intn(len(c.Nets))].Name}
	}
	req.NonOverlap = h.rng.Intn(4) == 0
	if h.rng.Intn(6) == 0 {
		req.Max = 1 + h.rng.Intn(3)
	}
	if !req.NonOverlap && req.Max == 0 {
		req.Workers = h.rng.Intn(3)
	}

	opts := core.Options{Globals: req.Globals, Bind: req.Bind, MaxInstances: req.Max}
	if req.NonOverlap {
		opts.Policy = core.NonOverlapping
	}
	res, err := core.Find(c, pat, opts)
	code, body := h.send("/v1/match", JobRequest{Kind: jobKindMatch, Match: &req}, req)
	if err != nil {
		if code != http.StatusBadRequest {
			h.errorf("match %+v: status %d (%s); core.Find says %v", req, code, body, err)
		}
		h.ran["match-refused"]++
		return
	}
	if code != http.StatusOK {
		h.fatalf("match %+v: status %d: %s", req, code, body)
	}
	var resp MatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		h.fatalf("match: %v", err)
	}
	got, want := canonJSON(resp.Instances), canonInstances(res.Instances)
	if req.Workers > 1 {
		// The parallel engine reports the same instances in canonical
		// order.
		sort.Strings(got)
		sort.Strings(want)
	}
	if !slices.Equal(got, want) {
		h.errorf("match %+v: %d instances %v; core.Find finds %d: %v", req, len(got), got, len(want), want)
	}
	h.ran["match"]++
	h.ran["match-instances"] += len(want)
}

// sweep runs one /v1/sweep, or a sweep job, and checks each pattern
// against core.Find with the sweep's global union.
func (h *history) sweep() {
	name, mr := h.pick()
	c := mr.build(h.t)
	req := SweepRequest{Circuit: name, Globals: h.randomGlobals(c), Workers: 1 + h.rng.Intn(2), IncludeInstances: true}
	for _, i := range h.rng.Perm(len(historyCells))[:2+h.rng.Intn(3)] {
		req.Patterns = append(req.Patterns, historyCells[i])
	}
	union := slices.Clone(req.Globals)
	for _, p := range req.Patterns {
		for _, n := range stdcell.Get(p).Pattern().Globals() {
			union = append(union, n.Name)
		}
	}
	code, body := h.send("/v1/sweep", JobRequest{Kind: jobKindSweep, Sweep: &req}, req)
	if code != http.StatusOK {
		h.fatalf("sweep %+v: status %d: %s", req, code, body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		h.fatalf("sweep: %v", err)
	}
	if len(resp.Results) != len(req.Patterns) {
		h.fatalf("sweep %+v: %d results for %d patterns", req, len(resp.Results), len(req.Patterns))
	}
	for i, p := range req.Patterns {
		res, err := core.Find(c, stdcell.Get(p).Pattern(), core.Options{Globals: union})
		if err != nil {
			h.fatalf("oracle %s: %v", p, err)
		}
		got, want := canonJSON(resp.Results[i].Instances), canonInstances(res.Instances)
		if resp.Results[i].Pattern != p || resp.Results[i].Count != len(want) || !slices.Equal(got, want) {
			h.errorf("sweep %+v: %s has %d instances %v; core.Find finds %d: %v",
				req, resp.Results[i].Pattern, resp.Results[i].Count, got, len(want), want)
		}
		h.ran["sweep-instances"] += len(want)
	}
	h.ran["sweep"]++
}

// extract runs one extract job with store_as and checks its counts and
// netlist against extract.Specs on the rebuilt circuit; the stored result
// becomes a mirror of its own.
func (h *history) extract() {
	name, mr := h.pick()
	c := mr.build(h.t)
	req := ExtractRequest{Circuit: name, StoreAs: fmt.Sprintf("g%d", h.rng.Intn(2)), IncludeNetlist: true}
	if h.rng.Intn(3) > 0 {
		for _, i := range h.rng.Perm(len(historyCells))[:1+h.rng.Intn(4)] {
			req.Cells = append(req.Cells, historyCells[i])
		}
	}
	switch h.rng.Intn(3) {
	case 0:
		req.Globals = rails
	case 1:
		req.Globals = []string{c.Nets[h.rng.Intn(len(c.Nets))].Name}
	}
	exts, err := extract.Specs(c, historySpecs(req.Cells), extract.Options{Globals: req.Globals})
	if err != nil {
		h.fatalf("oracle extraction: %v", err)
	}
	var want strings.Builder
	if err := netlist.WriteCircuit(&want, c); err != nil {
		h.fatalf("%v", err)
	}
	view := waitJob(h.t, h.s, submitJob(h.t, h.s, JobRequest{Kind: "extract", Extract: &req}).ID)
	if view.State != jobs.Done {
		h.fatalf("extract %+v ended %s: %s", req, view.State, view.Error)
	}
	var er ExtractResponse
	if err := json.Unmarshal(view.Result, &er); err != nil {
		h.fatalf("%v", err)
	}
	counts := make([]ExtractionJSON, len(exts))
	for i, x := range exts {
		counts[i] = ExtractionJSON{Cell: x.Cell, Count: x.Count}
		h.ran["extracted"] += x.Count
	}
	h.ran["extract"]++
	if !slices.Equal(er.Extractions, counts) || er.Netlist != want.String() {
		h.errorf("extract %+v: counts %v and netlist\n%s\nthe oracle extracts %v and writes\n%s",
			req, er.Extractions, er.Netlist, counts, want.String())
	}
	from := *mr
	from.ops = slices.Clip(mr.ops)
	h.mirrors[req.StoreAs] = &mirror{name: req.StoreAs, from: &from, cells: req.Cells, exts: req.Globals}
	h.describe(req.StoreAs)
}

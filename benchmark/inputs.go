package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"subgemini/internal/core"
	"subgemini/internal/delta"
	"subgemini/internal/extract"
	"subgemini/internal/gen"
	"subgemini/internal/graph"
	"subgemini/internal/netlist"
	"subgemini/internal/stdcell"
)

// globals are the special signals of every generated circuit; the daemon
// gets the same list through -globals.
var globals = []string{"VDD", "GND"}

// matchPatterns are the cells match-rand and eco-patch query, in request
// order.  All are prime cells of gen.RandomLogic's palette, so the census
// in gen.Design.Expected is exact for them.
var matchPatterns = []string{"NAND2", "NAND3", "NOR2", "XOR2", "AOI21", "OAI21", "MUX2", "INV"}

// sweepLibrary is the stored library sweep-tiled sweeps.
var sweepLibrary = []string{"INV", "BUF", "NAND2", "NAND3", "NOR2", "AND2", "XOR2", "MUX2", "FA", "DFF", "TINV", "SRAM6T"}

const (
	randVariants = 8 // rand4000 variants match-rand uploads
	ecoBatches   = 8 // distinct edit batches eco-patch alternates through
)

// circuit is one netlist the daemon receives, with what the benchmark needs
// to check the daemon's answers about it.
type circuit struct {
	name    string
	text    string
	devices int

	// expect maps a pattern or cell name to its expected instance count:
	// matches and sweeps count MatchAll instances, extract-jobs counts
	// extracted cells.
	expect map[string]int
	// placed is the generator's cell census; extract-jobs also checks
	// extracted counts of tiled designs against it.
	placed map[string]int
}

// parse reads the circuit back exactly as the daemon does, giving an
// in-process mirror of the stored circuit.
func (c *circuit) parse() (*graph.Circuit, error) {
	f, err := netlist.ParseString(c.text, c.name)
	if err != nil {
		return nil, err
	}
	return f.MainCircuit(c.name)
}

func newCircuit(d *gen.Design, name string) (*circuit, error) {
	var b strings.Builder
	if err := netlist.WriteCircuit(&b, d.C); err != nil {
		return nil, err
	}
	return &circuit{name: name, text: b.String(), devices: d.C.NumDevices(), expect: map[string]int{}, placed: d.Placed}, nil
}

// withCensus fills expect from the generator's census for every pattern.
func (c *circuit) withCensus(d *gen.Design, patterns []string) *circuit {
	for _, p := range patterns {
		c.expect[p] = d.Expected(stdcell.Get(p))
	}
	return c
}

// findCounts runs in-process core.Find for each pattern over g.
func findCounts(g *graph.Circuit, patterns []string) (map[string]int, error) {
	out := make(map[string]int, len(patterns))
	for _, p := range patterns {
		res, err := core.Find(g, stdcell.Get(p).Pattern(), core.Options{Globals: globals})
		if err != nil {
			return nil, fmt.Errorf("find %s in %s: %w", p, g.Name, err)
		}
		out[p] = len(res.Instances)
	}
	return out, nil
}

// randDesign derives one random-logic design from rng: the draw is the
// only seed-dependent part, so equal seeds give equal netlists.
func randDesign(rng *rand.Rand, gates int) *gen.Design {
	return gen.RandomLogic(gates, gates/64+8, rng.Int63())
}

// matchRandInputs builds the rand4000 variants match-rand uploads.
func matchRandInputs(seed int64) ([]*circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*circuit, randVariants)
	for v := range out {
		d := randDesign(rng, 4000)
		c, err := newCircuit(d, fmt.Sprintf("rand4000-v%d", v))
		if err != nil {
			return nil, err
		}
		out[v] = c.withCensus(d, matchPatterns)
	}
	return out, nil
}

// tiledPool builds the cell-array designs sweep-tiled uploads, in a
// seed-dependent order.  The designs themselves do not depend on the seed.
func tiledPool(seed int64) ([]*circuit, error) {
	designs := []*gen.Design{
		gen.RippleAdder(256), gen.ArrayMultiplier(16), gen.ALUDatapath(64),
		gen.RippleCounter(256), gen.ShiftRegister(256), gen.SRAMArray(32, 32),
		gen.RegisterFile(16, 16),
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(designs), func(i, j int) { designs[i], designs[j] = designs[j], designs[i] })
	out := make([]*circuit, len(designs))
	for i, d := range designs {
		c, err := newCircuit(d, d.C.Name)
		if err != nil {
			return nil, err
		}
		out[i] = c.withCensus(d, sweepLibrary)
	}
	return out, nil
}

// sweepExpect checks the census of every tiled design against an
// in-process core.Find and returns the (design, pattern) pairs where they
// disagree, after re-basing those pairs on the in-process count.  The
// census counts a BUF inside every DFF, but that buffer's middle net is the
// DFF's Q output, so the instance exists only where Q drives nothing else;
// every other pair of the pool keeps the census as its oracle.
func sweepExpect(pool []*circuit) ([]string, error) {
	var exceptions []string
	for _, c := range pool {
		g, err := c.parse()
		if err != nil {
			return nil, err
		}
		got, err := findCounts(g, sweepLibrary)
		if err != nil {
			return nil, err
		}
		for _, p := range sweepLibrary {
			if got[p] != c.expect[p] {
				exceptions = append(exceptions, c.name+"/"+p)
				c.expect[p] = got[p]
			}
		}
	}
	return exceptions, nil
}

// extractPool builds the transistor netlists extract-jobs uploads, with
// per-cell extraction counts from an in-process extract.Cells on the
// mirror.  alu64 is left out: it pairs an XOR2 and an AND2 on the same
// inputs, which extraction claims as a half adder, so its census is no
// oracle for extraction; regfile16x16 takes its place.
func extractPool(seed int64) ([]*circuit, error) {
	rng := rand.New(rand.NewSource(seed))
	designs := []*gen.Design{
		randDesign(rng, 1000), randDesign(rng, 1000),
		gen.ArrayMultiplier(16), gen.RippleAdder(256), gen.RegisterFile(16, 16), gen.RippleCounter(256),
	}
	out := make([]*circuit, len(designs))
	for i, d := range designs {
		name := d.C.Name
		if i < 2 {
			name = fmt.Sprintf("%s-v%d", name, i)
		}
		c, err := newCircuit(d, name)
		if err != nil {
			return nil, err
		}
		if i < 2 {
			// Random logic chains prime gates into composite cells, which
			// extraction claims, so its census is no extraction oracle.
			c.placed = nil
		}
		g, err := c.parse()
		if err != nil {
			return nil, err
		}
		exts, err := extract.Cells(g, stdcell.All(), extract.Options{Globals: globals})
		if err != nil {
			return nil, err
		}
		for _, x := range exts {
			c.expect[x.Cell] = x.Count
		}
		out[i] = c
	}
	return out, nil
}

// ecoPlan is eco-patch's resident circuit and its edit script.  PATCH i
// applies batch (i/2) mod ecoBatches when i is even and reverts it when i
// is odd, so the circuit alternates between its original state and one
// edited state and never grows; the re-match after PATCH i asks for
// matchPatterns[i mod 8].
type ecoPlan struct {
	circuit *circuit
	apply   [ecoBatches][]delta.Op
	revert  [ecoBatches][]delta.Op
	// expect[i mod ecoPeriod] is the count the re-match after PATCH i must
	// return.
	expect [ecoPeriod]int
}

// ecoPeriod is the length after which the (state, pattern) schedule
// repeats.
const ecoPeriod = 2 * ecoBatches

func (p *ecoPlan) step(i int) (ops []delta.Op, pattern string) {
	b := (i / 2) % ecoBatches
	ops = p.apply[b]
	if i%2 == 1 {
		ops = p.revert[b]
	}
	return ops, matchPatterns[i%len(matchPatterns)]
}

// ecoInputs builds eco-patch's circuit, its edit batches, and the expected
// re-match counts from in-process core.Find on both alternating states.
func ecoInputs(seed int64) (*ecoPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	d := randDesign(rng, 4000)
	c, err := newCircuit(d, "rand4000-eco")
	if err != nil {
		return nil, err
	}
	g, err := c.parse()
	if err != nil {
		return nil, err
	}
	if c.expect, err = findCounts(g, matchPatterns); err != nil {
		return nil, err
	}
	p := &ecoPlan{circuit: c}
	p.apply, p.revert = rewireBatches(rng, g)
	for i := 0; i < ecoPeriod; i++ {
		ops, pat := p.step(i)
		if i%2 == 1 {
			p.expect[i] = c.expect[pat]
			continue
		}
		edited := g.Clone()
		if _, err := delta.Apply(edited, 2, ops); err != nil {
			return nil, fmt.Errorf("eco batch %d: %w", i/2, err)
		}
		n, err := findCounts(edited, []string{pat})
		if err != nil {
			return nil, err
		}
		p.expect[i] = n[pat]
	}
	return p, nil
}

// rewireBatches draws eco-patch's edit batches from g.  Batch b moves b+1
// distinct non-rail device pins onto fresh nets, so every seed edits with
// the same batch sizes and only the pins differ; its revert moves the pins
// back and deletes the fresh nets again.
func rewireBatches(rng *rand.Rand, g *graph.Circuit) (apply, revert [ecoBatches][]delta.Op) {
	type pin struct{ dev, pin int }
	for b := range apply {
		used := map[pin]bool{}
		var back, drop []delta.Op
		for len(apply[b]) <= b {
			d := g.Devices[rng.Intn(len(g.Devices))]
			pn := pin{d.Index, rng.Intn(len(d.Pins))}
			old := d.Pins[pn.pin].Net.Name
			if used[pn] || slices.Contains(globals, old) {
				continue
			}
			used[pn] = true
			fresh := fmt.Sprintf("eco%d_%d", b, len(apply[b]))
			apply[b] = append(apply[b], delta.Op{Op: delta.OpRewirePin, Device: d.Name, Pin: pn.pin, Net: fresh})
			back = append(back, delta.Op{Op: delta.OpRewirePin, Device: d.Name, Pin: pn.pin, Net: old})
			drop = append(drop, delta.Op{Op: delta.OpRemoveNet, Name: fresh})
		}
		revert[b] = append(back, drop...)
	}
	return apply, revert
}

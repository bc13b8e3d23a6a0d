package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestCollectorRing(t *testing.T) {
	c := NewCollector(3)
	for i := 1; i <= 5; i++ {
		c.Event(Event{Kind: KindPhase1Pass, Pass: i})
	}
	got := c.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d events, want 3", len(got))
	}
	for i, want := range []int{3, 4, 5} {
		if got[i].Pass != want {
			t.Errorf("event %d has pass %d, want %d (oldest-first order)", i, got[i].Pass, want)
		}
	}
	if c.Total() != 5 {
		t.Errorf("Total = %d, want 5", c.Total())
	}
	if c.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", c.Dropped())
	}
	c.Reset()
	if len(c.Events()) != 0 || c.Total() != 0 {
		t.Error("Reset did not clear the collector")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Event(Event{Kind: KindPhase2Candidate})
			}
		}()
	}
	wg.Wait()
	if c.Total() != 800 {
		t.Errorf("Total = %d, want 800", c.Total())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf strings.Builder
	w := NewJSONLWriter(&buf)
	in := []Event{
		{Kind: KindRunStart, Circuit: "chip", Pattern: "NAND2", Devices: 100, Nets: 40},
		{Kind: KindPhase1Pass, Pass: 1, Side: SideNets, PatternValid: 3, PatternCorrupt: 2,
			PatternPartitions: 2, MainActive: 30, MainPruned: 10},
		{Kind: KindCandidateVector, KeyVertex: "N4", CVSize: 2},
		{Kind: KindPhase2Candidate, Candidate: "N13", Passes: 4, Backtracks: 1, DurationNS: 1500},
		{Kind: KindPhase2Candidate, Candidate: "N14", Matched: true, Passes: 7, DurationNS: 2500},
		{Kind: KindPhase2Candidate, Candidate: "N15", Passes: 9, Guesses: 3, GuessLimited: true, BallSize: 12},
		{Kind: KindRunEnd, Instances: 1, Candidates: 3},
	}
	for _, e := range in {
		w.Event(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), `{"schema":"subgemini-trace/v1"}`) {
		t.Errorf("stream does not start with the schema header: %q", buf.String()[:40])
	}
	out, err := ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-tripped %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d round-tripped as %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLRejectsBadSchema(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader(`{"schema":"other/v9"}` + "\n")); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed header accepted")
	}
}

func TestMulti(t *testing.T) {
	a, b := NewCollector(8), NewCollector(8)
	m := Multi(a, nil, b)
	m.Event(Event{Kind: KindRunStart})
	if a.Total() != 1 || b.Total() != 1 {
		t.Errorf("Multi delivered to (%d, %d) sinks, want (1, 1)", a.Total(), b.Total())
	}
}

func TestNopEventNoAllocs(t *testing.T) {
	var tr Tracer = Nop{}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Event(Event{Kind: KindPhase2Candidate, Candidate: "N14", Matched: true, Passes: 7, DurationNS: 1})
	})
	if allocs != 0 {
		t.Errorf("Nop.Event allocates %.1f times per event, want 0", allocs)
	}
}

func TestRenderTables(t *testing.T) {
	var buf strings.Builder
	events := []Event{
		{Kind: KindRunStart, Circuit: "paperG", Pattern: "paperS", Devices: 7, Nets: 9},
		{Kind: KindPhase1Pass, Pass: 1, Side: SideNets, PatternValid: 1, PatternCorrupt: 5,
			PatternPartitions: 1, MainActive: 2, MainPruned: 7},
		{Kind: KindPhase1Pass, Pass: 1, Side: SideDevices, PatternValid: 0, PatternCorrupt: 4,
			PatternPartitions: 0, MainActive: 7, MainPruned: 0},
		{Kind: KindCandidateVector, KeyVertex: "N4", CVSize: 2},
		{Kind: KindPhase2Candidate, Candidate: "N13", Passes: 4},
		{Kind: KindPhase2Candidate, Candidate: "N14", Matched: true, Passes: 7, Guesses: 1, DurationNS: 3000},
		{Kind: KindPhase2Candidate, Candidate: "N15", Passes: 9, Guesses: 3, GuessLimited: true},
		{Kind: KindRunEnd, Instances: 1, Candidates: 3},
	}
	if err := Render(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"run: pattern paperS in circuit paperG (7 devices, 9 nets)",
		"Phase I relabeling:",
		"S valid", "S partitions", "G pruned",
		"key vertex N4 (net), |CV| = 2",
		"Phase II candidates:",
		"N13", "no match", "N14", "MATCH", "N15", "guess limit",
		"run end: 1 instance(s) from 3 candidate(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmptyCV(t *testing.T) {
	var buf strings.Builder
	if err := Render(&buf, []Event{{Kind: KindCandidateVector}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty candidate vector") {
		t.Errorf("empty-CV rendering wrong: %q", buf.String())
	}
}

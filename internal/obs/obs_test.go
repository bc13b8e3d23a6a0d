package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func finished(id string, status int, dur time.Duration, cancelled bool) *Timeline {
	t := NewTimeline(id, "http", "POST", "/v1/match")
	if cancelled {
		t.SetCancelled()
	}
	t.Finish(status)
	t.durNS = int64(dur) // pin the duration; wall clock is too coarse for tests
	return t
}

func TestTimelineSpansAndJSON(t *testing.T) {
	tl := NewTimeline("r-1", "http", "POST", "/v1/match")
	root := tl.Begin(NoSpan, KindStoreGet, "ring")
	tl.Attr(root, "circuit", "ring")
	tl.AttrInt(root, "version", 7)
	child := tl.Begin(root, KindPhase1, "")
	tl.End(child)
	tl.End(root)
	open := tl.Begin(NoSpan, KindPhase2, "")
	_ = open // never ended: request finished first
	tl.Finish(200)

	js := tl.JSON()
	if js.RequestID != "r-1" || js.Scope != "http" || js.Status != 200 {
		t.Fatalf("header wrong: %+v", js)
	}
	if len(js.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(js.Spans))
	}
	if js.Spans[0].Attrs["circuit"] != "ring" || js.Spans[0].Attrs["version"] != "7" {
		t.Errorf("attrs wrong: %v", js.Spans[0].Attrs)
	}
	if js.Spans[1].Parent != int32(root) {
		t.Errorf("child parent = %d, want %d", js.Spans[1].Parent, root)
	}
	if !js.Spans[2].Open {
		t.Error("unfinished span not marked open")
	}
	if _, err := json.Marshal(js); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestNilSafety(t *testing.T) {
	var tl *Timeline
	ref := tl.Begin(NoSpan, KindPhase1, "x")
	if ref != NoSpan {
		t.Fatalf("nil Begin = %d, want NoSpan", ref)
	}
	tl.End(ref)
	tl.Attr(ref, "k", "v")
	tl.AttrInt(ref, "k", 1)
	tl.SetCancelled()
	tl.Finish(200)
	if tl.ID() != "" {
		t.Error("nil ID not empty")
	}
	var sc *Scope
	if sc = tl.Scope(NoSpan); sc != nil {
		t.Fatal("nil timeline yielded non-nil scope")
	}
	if r := sc.Begin(KindPhase1, ""); r != NoSpan {
		t.Fatalf("nil scope Begin = %d", r)
	}
	sc.End(NoSpan)
	sc.Attr(NoSpan, "k", "v")
	sc.AttrInt(NoSpan, "k", 1)
	if sc.Timeline() != nil {
		t.Error("nil scope Timeline not nil")
	}
	var rec *Recorder
	if reason, _ := rec.Observe(tl); reason != "" {
		t.Error("nil recorder kept something")
	}
	if rec.List(Filter{}) != nil || rec.Find("x") != nil {
		t.Error("nil recorder listed something")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tl := NewTimeline("r-ctx", "http", "GET", "/x")
	ctx := NewContext(context.Background(), tl)
	if FromContext(ctx) != tl {
		t.Fatal("timeline lost in context")
	}
	if RequestID(ctx) != "r-ctx" {
		t.Fatalf("RequestID = %q", RequestID(ctx))
	}
	if got := ScopeFromContext(ctx); got == nil || got.Timeline() != tl {
		t.Fatal("scope from context wrong")
	}
	if RequestID(context.Background()) != "" {
		t.Error("empty context has an ID")
	}
	if ScopeFromContext(context.Background()) != nil {
		t.Error("empty context has a scope")
	}
}

func TestClassifyPrecedence(t *testing.T) {
	r := NewRecorder(8, 1000, 50*time.Millisecond)
	cases := []struct {
		name   string
		tl     *Timeline
		reason string
	}{
		{"shed beats everything", finished("a", 429, time.Second, true), KeepShed},
		{"cancel beats error", finished("b", 503, time.Second, true), KeepCancel},
		{"error beats slow", finished("c", 500, time.Second, false), KeepError},
		{"slow", finished("d", 200, time.Second, false), KeepSlow},
		{"fast 4xx drops", finished("e", 404, time.Millisecond, false), ""},
	}
	for _, c := range cases {
		// Skip the sampled case: with sampleN=1000 the first tick would hit.
		if c.reason == "" {
			r.mu.Lock()
			r.tick = 5 // not ≡1 mod 1000
			r.mu.Unlock()
		}
		if got := r.Classify(c.tl); got != c.reason {
			t.Errorf("%s: reason %q, want %q", c.name, got, c.reason)
		}
	}
}

func TestTailSamplingDeterministic(t *testing.T) {
	r := NewRecorder(64, 4, time.Hour)
	kept := 0
	for i := 0; i < 40; i++ {
		reason, slow := r.Observe(finished("r", 200, time.Millisecond, false))
		if slow {
			t.Fatal("fast request marked slow")
		}
		if reason == KeepSampled {
			kept++
		} else if reason != "" {
			t.Fatalf("unexpected reason %q", reason)
		}
	}
	if kept != 10 {
		t.Errorf("1-in-4 sampling kept %d of 40, want 10", kept)
	}
	c := r.CountersSnapshot()
	if c.Kept[KeepSampled] != 10 {
		t.Errorf("kept counter %d, want 10", c.Kept[KeepSampled])
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4, 1, time.Hour) // keep everything, ring of 4
	for i := 0; i < 7; i++ {
		tl := NewTimeline(string(rune('a'+i)), "http", "GET", "/x")
		tl.Finish(200)
		r.Observe(tl)
	}
	got := r.List(Filter{})
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Newest first: g f e d.
	want := []string{"g", "f", "e", "d"}
	for i, w := range want {
		if got[i].RequestID != w {
			t.Errorf("list[%d] = %q, want %q", i, got[i].RequestID, w)
		}
	}
	if found := r.Find("c"); found != nil {
		t.Error("evicted timeline still findable")
	}
	if found := r.Find("f"); len(found) != 1 {
		t.Errorf("Find(f) = %d results", len(found))
	}
}

func TestListFilters(t *testing.T) {
	r := NewRecorder(16, 1, 100*time.Millisecond)
	r.Observe(finished("slow1", 200, 200*time.Millisecond, false))
	r.Observe(finished("err1", 500, time.Millisecond, false))
	sweep := NewTimeline("sweep1", "http", "POST", "/v1/sweep")
	sweep.Finish(200)
	r.Observe(sweep)

	if got := r.List(Filter{Outcome: KeepError}); len(got) != 1 || got[0].RequestID != "err1" {
		t.Errorf("outcome filter: %+v", got)
	}
	if got := r.List(Filter{Path: "sweep"}); len(got) != 1 || got[0].RequestID != "sweep1" {
		t.Errorf("path filter: %+v", got)
	}
	if got := r.List(Filter{MinDur: 150 * time.Millisecond}); len(got) != 1 || got[0].RequestID != "slow1" {
		t.Errorf("min-dur filter: %+v", got)
	}
	if got := r.List(Filter{Limit: 2}); len(got) != 2 {
		t.Errorf("limit filter: %d results", len(got))
	}
}

func TestObserveSlowAndCounters(t *testing.T) {
	r := NewRecorder(8, 1, 10*time.Millisecond)
	tl := NewTimeline("s", "http", "POST", "/v1/match")
	ref := tl.Begin(NoSpan, KindPhase1, "")
	tl.End(ref)
	tl.Begin(NoSpan, KindPhase2, "")
	tl.Finish(200)
	tl.durNS = int64(20 * time.Millisecond)
	reason, slow := r.Observe(tl)
	if reason != KeepSlow || !slow {
		t.Fatalf("reason=%q slow=%v, want slow/true", reason, slow)
	}
	c := r.CountersSnapshot()
	if c.Slow != 1 || c.Spans[KindPhase1] != 1 || c.Spans[KindPhase2] != 1 {
		t.Errorf("counters: %+v", c)
	}
}

func TestConcurrentSpanAppends(t *testing.T) {
	tl := NewTimeline("r-conc", "http", "POST", "/v1/sweep")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := tl.Scope(NoSpan)
			for i := 0; i < 50; i++ {
				ref := sc.Begin(KindPhase2, "p")
				sc.AttrInt(ref, "i", int64(i))
				sc.End(ref)
				_ = tl.JSON() // concurrent snapshot while appending
			}
		}()
	}
	wg.Wait()
	tl.Finish(200)
	if n := len(tl.JSON().Spans); n != 400 {
		t.Fatalf("spans = %d, want 400", n)
	}
}

func TestTopSpans(t *testing.T) {
	tl := NewTimeline("r", "http", "GET", "/x")
	a := tl.Begin(NoSpan, KindPhase1, "")
	tl.spans[a].EndNS = tl.spans[a].StartNS + int64(5*time.Millisecond)
	b := tl.Begin(NoSpan, KindPhase2, "")
	tl.spans[b].EndNS = tl.spans[b].StartNS + int64(50*time.Millisecond)
	c := tl.Begin(NoSpan, KindStoreGet, "")
	tl.spans[c].EndNS = tl.spans[c].StartNS + int64(1*time.Millisecond)
	tl.Finish(200)
	top := tl.TopSpans(2)
	if len(top) != 2 || top[0].Kind != KindPhase2 || top[1].Kind != KindPhase1 {
		t.Fatalf("top spans: %+v", top)
	}
}

func TestContextHandlerInjectsRequestID(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, "json", "info")
	tl := NewTimeline("r-log", "http", "GET", "/x")
	log.InfoContext(NewContext(context.Background(), tl), "hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not json: %v (%s)", err, buf.String())
	}
	if rec["request_id"] != "r-log" || rec["k"] != "v" || rec["msg"] != "hello" {
		t.Errorf("record: %v", rec)
	}

	buf.Reset()
	log = NewLogger(&buf, "text", "warn")
	log.Info("dropped")
	log.Warn("kept")
	if strings.Contains(buf.String(), "dropped") || !strings.Contains(buf.String(), "kept") {
		t.Errorf("level filter: %q", buf.String())
	}
}

func TestLogfLogger(t *testing.T) {
	var lines []string
	log := LogfLogger(func(format string, args ...any) {
		lines = append(lines, strings.TrimSpace(strings.ReplaceAll(format, "%s", args[0].(string))))
	})
	log = log.With("component", "store")
	log.Info("evicted circuit", "name", "ring")
	if len(lines) != 1 || !strings.Contains(lines[0], "evicted circuit") ||
		!strings.Contains(lines[0], "component=store") || !strings.Contains(lines[0], "name=ring") {
		t.Fatalf("lines: %v", lines)
	}
}

func TestDiscardLogger(t *testing.T) {
	log := Discard()
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Error("discard logger claims enabled")
	}
	log.Error("goes nowhere") // must not panic
}

func TestRenderTimeline(t *testing.T) {
	tl := NewTimeline("r-42", "http", "POST", "/v1/match")
	root := tl.Begin(NoSpan, KindStoreGet, "ring")
	tl.Attr(root, "version", "3")
	child := tl.Begin(root, KindPhase1, "")
	tl.End(child)
	tl.End(root)
	tl.Finish(200)
	var buf bytes.Buffer
	RenderTimeline(&buf, tl.JSON())
	out := buf.String()
	for _, want := range []string{"r-42", "POST /v1/match", "status=200", "store-get (ring)", "version=3", "phase1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// The child is indented deeper than its parent.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), out)
	}
	if strings.Index(lines[2], "phase1") <= strings.Index(lines[1], "store-get") {
		t.Errorf("child not indented:\n%s", out)
	}
}

func TestFmtUS(t *testing.T) {
	for us, want := range map[int64]string{500: "500µs", 2_500: "2.50ms", 3_200_000: "3.200s"} {
		if got := fmtUS(us); got != want {
			t.Errorf("fmtUS(%d) = %q, want %q", us, got, want)
		}
	}
}

// paperTrace is the trace of the paper's worked example as core records it,
// with a third candidate that hit the guess bound.
func paperTrace() TimelineJSON {
	return TimelineJSON{RequestID: "paper", Scope: ScopeTrace, Spans: []SpanJSON{
		{Kind: KindCSRBuild, Name: "paperG", Parent: -1},
		{Kind: KindPhase1, Name: "paperS", Parent: -1, Attrs: map[string]string{
			"circuit": "paperG", "devices": "7", "nets": "9", "passes": "1",
			"cv_size": "3", "key": "N4", "key_is_device": "false"}},
		{Kind: KindPass, Parent: 1, Attrs: map[string]string{"pass": "1", "side": "nets",
			"s_valid": "1", "s_corrupt": "5", "s_partitions": "1", "g_active": "2", "g_pruned": "7"}},
		{Kind: KindPass, Parent: 1, Attrs: map[string]string{"pass": "1", "side": "devices",
			"s_valid": "0", "s_corrupt": "4", "s_partitions": "0", "g_active": "7", "g_pruned": "0"}},
		{Kind: KindPhase2, Name: "paperS", Parent: -1, Attrs: map[string]string{
			"candidates": "3", "filtered": "0", "instances": "1"}},
		{Kind: KindCandidate, Name: "N13", Parent: 4, Attrs: map[string]string{"matched": "false",
			"passes": "4", "guesses": "0", "backtracks": "0", "guess_limited": "false", "ball": "16"}},
		{Kind: KindCandidate, Name: "N14", Parent: 4, DurUS: 3, Attrs: map[string]string{"matched": "true",
			"passes": "7", "guesses": "1", "backtracks": "0", "guess_limited": "false", "ball": "16"}},
		{Kind: KindCandidate, Name: "N15", Parent: 4, Attrs: map[string]string{"matched": "false",
			"passes": "9", "guesses": "3", "backtracks": "0", "guess_limited": "true", "ball": "16"}},
	}}
}

func TestRenderTraceTables(t *testing.T) {
	var buf bytes.Buffer
	RenderTrace(&buf, paperTrace())
	want := `run: pattern paperS in circuit paperG (7 devices, 9 nets)
Phase I relabeling:
pass  side     S valid  S corrupt  S partitions  G active  G pruned
1     nets     1        5          1             2         7
1     devices  0        4          0             7         0
phase1: key vertex N4 (net), |CV| = 3
`
	out := buf.String()
	if !strings.HasPrefix(out, want) {
		t.Errorf("Phase I rendering:\n%s\nwant prefix:\n%s", out, want)
	}
	for _, line := range []string{
		"Phase II candidates:",
		"candidate  outcome      passes  guesses  backtracks  time",
		"N13        no match     4       0        0           -",
		"N14        MATCH        7       1        0           3µs",
		"N15        guess limit  9       3        0           -",
		"run end: 1 instance(s) from 3 candidate(s)",
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("rendering missing line %q:\n%s", line, out)
		}
	}

	// A run cut inside Phase II (candidates but no instances) ends without
	// totals; one cut inside Phase I (no key) also without the CV line.
	cut := paperTrace()
	delete(cut.Spans[4].Attrs, "instances")
	buf.Reset()
	RenderTrace(&buf, cut)
	if out := buf.String(); strings.Contains(out, "run end") || !strings.Contains(out, "N15") {
		t.Errorf("cut Phase II rendering:\n%s", out)
	}
	delete(cut.Spans[1].Attrs, "key")
	cut.Spans = cut.Spans[:4]
	buf.Reset()
	RenderTrace(&buf, cut)
	if out := buf.String(); strings.Contains(out, "phase1:") || !strings.Contains(out, "G pruned") {
		t.Errorf("cut Phase I rendering:\n%s", out)
	}
}

func TestRenderTraceEmptyCV(t *testing.T) {
	var buf bytes.Buffer
	RenderTrace(&buf, TimelineJSON{Scope: ScopeTrace, Spans: []SpanJSON{
		{Kind: KindPhase1, Name: "absent", Parent: -1, Attrs: map[string]string{
			"circuit": "paperG", "devices": "7", "nets": "9", "cv_size": "0", "key": "", "key_is_device": "false"}},
	}})
	out := buf.String()
	for _, want := range []string{"empty candidate vector", "run end: 0 instance(s) from 0 candidate(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("empty-CV rendering missing %q:\n%s", want, out)
		}
	}
}

// TestTraceDetail: only a trace asks for algorithm detail, and Record adds
// a closed span that starts when it is told.
func TestTraceDetail(t *testing.T) {
	var nilScope *Scope
	if nilScope.Detail() || NewTimeline("r", "http", "GET", "/").Scope(NoSpan).Detail() {
		t.Error("a nil scope or a request timeline asks for detail")
	}
	tr := NewTrace("t")
	sc := tr.Scope(NoSpan)
	if !sc.Detail() {
		t.Error("a trace does not ask for detail")
	}
	start := time.Now()
	time.Sleep(2 * time.Millisecond)
	if ref := nilScope.Record(KindPass, "", start); ref != NoSpan {
		t.Errorf("nil scope Record = %d, want NoSpan", ref)
	}
	sc.AttrInt(sc.Record(KindPass, "p", start), "pass", 1)
	js := tr.JSON()
	if js.Scope != ScopeTrace || len(js.Spans) != 1 {
		t.Fatalf("trace JSON = %+v", js)
	}
	sp := js.Spans[0]
	if sp.Open || sp.DurUS < 2000 || sp.Attrs["pass"] != "1" {
		t.Errorf("recorded span = %+v, want closed, at least 2ms long, pass=1", sp)
	}
}

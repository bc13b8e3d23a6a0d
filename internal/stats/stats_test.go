package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTotal(t *testing.T) {
	r := Report{Phase1Duration: 3 * time.Millisecond, Phase2Duration: 5 * time.Millisecond}
	if got := r.Total(); got != 8*time.Millisecond {
		t.Errorf("Total = %v, want 8ms", got)
	}
}

func TestString(t *testing.T) {
	r := Report{
		Instances: 7, MatchedDevices: 28, CVSize: 9, KeyVertex: "N4",
		Phase1Passes: 3, Phase2Passes: 21, Guesses: 2, Backtracks: 1,
		Phase1Duration: time.Millisecond, Phase2Duration: 2 * time.Millisecond,
	}
	s := r.String()
	for _, want := range []string{
		"instances=7", "matchedDevs=28", "cv=9", "key=N4",
		"p1passes=3", "p2passes=21", "guesses=2", "backtracks=1",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if strings.Contains(s, "guessLimitHits") || strings.Contains(s, "filtered") {
		t.Errorf("String() = %q reports guess-limit hits or filtered candidates for a run without any", s)
	}
	r.Filtered = 5
	if s := r.String(); !strings.Contains(s, "filtered=5") {
		t.Errorf("String() = %q missing filtered=5", s)
	}
	r.GuessLimitHits = 3
	if s := r.String(); !strings.Contains(s, "guessLimitHits=3") {
		t.Errorf("String() = %q missing guessLimitHits=3", s)
	}
}

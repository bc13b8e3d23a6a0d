package core

import (
	"errors"
	"fmt"
	"testing"

	"subgemini/internal/graph"
	"subgemini/internal/stats"
)

// resRing builds a closed ring of n two-pin resistors, the symmetric
// workload whose every candidate passes the admit walk.
func resRing(name string, n int) *graph.Circuit {
	c := graph.New(name)
	nets := make([]*graph.Net, n)
	for i := range nets {
		nets[i] = c.AddNet(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		c.MustAddDevice(fmt.Sprintf("d%d", i), "res", []graph.TermClass{0, 0}, []*graph.Net{nets[i], nets[(i+1)%n]})
	}
	return c
}

// TestAdmitWalkPollsCancel: the admit walk polls Options.Cancel every
// rCancelBlock visits like the ball extraction does, and a cut inside the
// walk rejects the candidate without counting it as filtered and without
// extracting its ball.
func TestAdmitWalkPollsCancel(t *testing.T) {
	defer func(old int) { rCancelBlock = old }(rCancelBlock)
	rCancelBlock = 2
	errStop := errors.New("stop")
	var stop bool
	polls := 0
	m, err := NewMatcher(resRing("g", 1000), Options{Cancel: func() error {
		polls++
		if stop {
			return errStop
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	pat, err := m.prepare(resRing("s", 800))
	if err != nil {
		t.Fatal(err)
	}
	var rep stats.Report
	p, err := newP2Region(m, pat, 0, &rep)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	// Device d0 of either ring hosts the key d0 at every depth.
	if !p.admit(0, 0) || polls == 0 {
		t.Fatalf("admit(d0, d0) with a quiet hook: polls = %d, want an admitted candidate and > 0 polls", polls)
	}
	stop, polls = true, 0
	if inst := p.verify(0, 0); inst != nil || !errors.Is(p.cancelled(), errStop) {
		t.Fatalf("verify under a firing hook returned %v, cancelled() = %v; want nil and %v", inst, p.cancelled(), errStop)
	}
	if polls != 1 || rep.Filtered != 0 || rep.RegionBallSum != 0 {
		t.Errorf("cut walk: polls = %d, Filtered = %d, RegionBallSum = %d; want 1, 0, 0", polls, rep.Filtered, rep.RegionBallSum)
	}
}

package bench

import (
	"time"

	"subgemini/internal/core"
	"subgemini/internal/gen"
	"subgemini/internal/stdcell"
)

// Phase2Row is one line of the Phase II table: one workload, keeping the
// fastest Phase II time of several iterations (candidate verification is
// deterministic, so min is the noise-robust statistic).
type Phase2Row struct {
	Circuit    string
	Devices    int
	Pattern    string
	Candidates int
	Found      int
	Radius     int     // pattern eccentricity from the key vertex
	AvgBall    float64 // mean extracted-region size, vertices
	MaxBall    int     // largest extracted region, vertices
	P2         time.Duration
}

// Phase2Regions measures the region-localized Phase II engine, which
// extracts a radius-bounded ball around each candidate and solves inside
// it, on tiled and random-logic workloads.  The per-candidate cost tracks
// the ball size rather than the circuit size, so the rand4000 row is where
// the paper-style locality argument shows up.  quick truncates to the
// smallest workload and a single iteration.
func Phase2Regions(quick bool) ([]Phase2Row, error) {
	type workload struct {
		name    string
		build   func() *gen.Design
		pattern *stdcell.CellDef
	}
	workloads := []workload{
		{"adder64", func() *gen.Design { return gen.RippleAdder(64) }, stdcell.FA},
		{"mult8", func() *gen.Design { return gen.ArrayMultiplier(8) }, stdcell.FA},
		{"rand1000", func() *gen.Design { return gen.RandomLogic(1000, 32, 11) }, stdcell.NAND2},
		{"rand4000", func() *gen.Design { return gen.RandomLogic(4000, 32, 11) }, stdcell.NAND2},
	}
	iters := 5
	if quick {
		workloads = workloads[:1]
		iters = 1
	}
	var rows []Phase2Row
	for _, w := range workloads {
		d := w.build()
		m, err := core.NewMatcher(d.C, core.Options{Globals: Rails})
		if err != nil {
			return rows, err
		}
		row := Phase2Row{
			Circuit: w.name,
			Devices: d.C.NumDevices(),
			Pattern: w.pattern.Name,
		}
		for it := 0; it < iters; it++ {
			res, err := m.Find(w.pattern.Pattern())
			if err != nil {
				return rows, err
			}
			if it == 0 {
				row.Candidates = res.Report.Candidates
				row.Found = len(res.Instances)
				row.Radius = res.Report.RegionRadius
				row.AvgBall = res.Report.RegionAvgSize()
				row.MaxBall = res.Report.RegionMaxSize
				row.P2 = res.Report.Phase2Duration
			} else if res.Report.Phase2Duration < row.P2 {
				row.P2 = res.Report.Phase2Duration
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

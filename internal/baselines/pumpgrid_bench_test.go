package baselines

import (
	"testing"

	"aqt/internal/rational"
	"aqt/internal/stability"
)

// benchGrid is a 7-point rate grid, r = 0.5 .. 0.8 at depth 6: the
// `aqt sweep` default shape.
func benchGrid() []stability.Point {
	pts := make([]stability.Point, 7)
	for i := range pts {
		f := 0.5 + 0.3*float64(i)/6
		pts[i] = stability.Point{Rate: rational.FromFloat(f, 4096), Depth: 6}
	}
	return pts
}

func benchmarkPumpGrid(b *testing.B, workers int) {
	pts := benchGrid()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := PumpGrid(pts, 400, workers, nil)
		for _, r := range res {
			if r.Panic != "" {
				b.Fatalf("probe %v panicked: %s", r.Point, r.Panic)
			}
		}
	}
}

// BenchmarkSweepSequential and BenchmarkSweepParallel measure one full
// 7-point pump sweep per op through the stability.SweepGrid pool —
// first pinned to a single worker, then fanned across GOMAXPROCS. On a
// machine with GOMAXPROCS >= 4 the parallel variant's ns/op divides by
// ~min(7, GOMAXPROCS); at GOMAXPROCS = 1 the two match to within pool
// overhead.
func BenchmarkSweepSequential(b *testing.B) { benchmarkPumpGrid(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchmarkPumpGrid(b, 0) }

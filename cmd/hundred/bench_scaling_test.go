package main

import (
	"testing"

	"repro/internal/engine"
)

// TestScalingSweep drives the v5 worker-scaling sweep over a scaled-down
// braid: every grid cell must reproduce the full-mode state count and
// carry a barrier point with throughput and an efficiency against the
// one-worker run.
func TestScalingSweep(t *testing.T) {
	const lanes, depth = 4, 2_000
	w := benchWorkload{
		name: "braid-test",
		scale: func(workers int) (int, engine.Stats, error) {
			var st engine.Stats
			res, err := engine.Explore([]braidState{{lane: -1}},
				braidExpand(lanes, depth), engine.Options{
					Parallelism: workers, Stats: &st,
				})
			if err != nil {
				return 0, st, err
			}
			return len(res.States), st, nil
		},
	}
	want := 1 + lanes*depth
	pts, err := runScalingSweep(w, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(scalingWorkers) {
		t.Fatalf("got %d points, want %d", len(pts), len(scalingWorkers))
	}
	for _, n := range scalingWorkers {
		p, ok := scalingPoint(pts, n)
		if !ok {
			t.Fatalf("no point at %d workers", n)
		}
		if p.Sched != "barrier" {
			t.Fatalf("point at %d workers has sched %q, want barrier", n, p.Sched)
		}
		if p.Efficiency <= 0 {
			t.Fatalf("barrier@%d carries no efficiency: %+v", n, p)
		}
		if p.StatesPerSec <= 0 {
			t.Fatalf("barrier@%d carries no throughput: %+v", n, p)
		}
	}
	if p, _ := scalingPoint(pts, 1); p.Efficiency != 1 {
		t.Fatalf("one-worker efficiency = %+v, want 1.0 by definition", p)
	}
	// History from before the scheduler was retired holds steal points;
	// the lookup must never return one.
	if _, ok := scalingPoint([]schedPoint{{Sched: "steal", Workers: 8, Efficiency: 0.9}}, 8); ok {
		t.Fatal("scalingPoint matched a steal point")
	}
	// The determinism check must fire when a run's state count drifts.
	if _, err := runScalingSweep(w, want+1); err == nil {
		t.Fatal("state-count drift not caught by the sweep")
	}
}

package engine_test

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/spacegen"
)

// maxAllocPerEdge is the committed allocation budget of one exploration,
// in heap bytes per recorded edge, for the space in TestExploreAllocBudget:
// the measured 78 B/edge (2 workers) plus 25%. The Result's own edge table
// is 12 B/edge and the space materializes each successor string, so most
// of the budget is not the engine's. A successor record that regrows by
// copying or an Edge that holds label strings again (32 B/edge, 100 B/edge
// here) breaks it.
const maxAllocPerEdge = 98

// TestExploreAllocBudget holds engine.Explore to maxAllocPerEdge on a
// fixed spacegen product space (121,500 states, 1,514,700 edges).
func TestExploreAllocBudget(t *testing.T) {
	sp := spacegen.Generate(spacegen.Config{Seed: 3, Families: 3, MaxStates: 8, MaxMult: 3, MaxExtra: 3, MaxSinks: 2})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := engine.Explore([]string{sp.Init()}, sp.ExpandFunc(), engine.Options{Parallelism: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.States) != sp.Truth.States {
		t.Fatalf("explored %d states, want %d", len(res.States), sp.Truth.States)
	}
	edges := 0
	for _, es := range res.Edges {
		edges += len(es)
	}
	perEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(edges)
	t.Logf("%d edges, %.1f B/edge allocated", edges, perEdge)
	if perEdge > maxAllocPerEdge {
		t.Errorf("Explore allocated %.1f B/edge, budget %d", perEdge, maxAllocPerEdge)
	}
}

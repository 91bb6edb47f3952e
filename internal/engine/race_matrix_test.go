package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/store"
)

// TestRaceMatrix drives the hot path at 8 workers across every reduction
// stack — full, canon quotient, ample-set POR, and the canon+POR stack —
// over both the mem and spill store backends, with the aliasing falsifier
// on, and checks each graph is byte-identical to its sequential twin. On
// its own it is a determinism test; under `go test -race` (CI runs it
// that way explicitly) it is the data-race gate for the zero-alloc
// pipeline: slab arenas, scratch buffers, the label interner and the
// sharded interning table all get concurrent traffic here.
func TestRaceMatrix(t *testing.T) {
	const n = 24
	inits := []string{"0,0"}
	modes := []struct {
		name string
		opts Options
	}{
		{"full", Options{}},
		{"canon", Options{Canon: sortCanon, CanonBytes: sortCanonBytes, VerifyCanon: 4}},
		{"por", Options{Independent: gridIndep}},
		{"canon+por", Options{Canon: sortCanon, CanonBytes: sortCanonBytes, VerifyCanon: 4, Independent: gridIndep}},
	}
	stores := []struct {
		name string
		cfg  store.Config
	}{
		{"mem", store.Config{}},
		{"spill", store.Config{Kind: store.Spill, MaxBytes: 1 << 10, PageBits: 5}},
	}
	for _, m := range modes {
		for _, sc := range stores {
			t.Run(m.name+"/"+sc.name, func(t *testing.T) {
				seqOpts := m.opts
				seqOpts.Parallelism = 1
				seqOpts.Store = sc.cfg
				seqOpts.VerifyAliasing = 1
				want, err := Explore(inits, gridExpandBytes(n), seqOpts)
				if err != nil {
					t.Fatal(err)
				}
				parOpts := seqOpts
				parOpts.Parallelism = 8
				got, err := Explore(inits, gridExpandBytes(n), parOpts)
				if err != nil {
					t.Fatal(err)
				}
				mustEqualResults(t, fmt.Sprintf("%s/%s workers=8", m.name, sc.name), want, got)
			})
		}
	}
}

// braidState is one state of the deep-narrow workload below: `lanes`
// parallel chains hanging off a single root (lane -1).
type braidState struct{ lane, pos int32 }

// braidExpand is a tapered braid: lane l is a chain of depth-l states, so
// the BFS frontier holds `lanes` states for the first depth-lanes+1
// levels and then shrinks by one state per level. Branching is ~1 and the
// depth runs into the hundreds. With lanes above workers*16 the barrier
// loop fans each early level out over the workers and then, once the
// frontier drops under workers*16, takes its sequential small-frontier
// bailout — so one run crosses the bailout threshold at every worker
// count up to lanes/16. It has 1 + lanes*depth - lanes*(lanes-1)/2 states
// (braidStates).
func braidExpand(lanes, depth int32) ExpandFunc[braidState] {
	return func(s braidState, x *Ctx[braidState]) {
		if s.lane < 0 {
			for l := int32(0); l < lanes; l++ {
				x.Emit(braidState{lane: l, pos: 1}, "start", int(l))
			}
			return
		}
		if s.pos < depth-s.lane {
			x.Emit(braidState{lane: s.lane, pos: s.pos + 1}, "step", int(s.lane))
		}
	}
}

// braidStates is braidExpand's planted state count.
func braidStates(lanes, depth int) int { return 1 + lanes*depth - lanes*(lanes-1)/2 }

// TestChainSmoke drives the tapered braid at GOMAXPROCS=16 and checks the
// byte-identity contract plus the planted closed-form state count. At 8
// and 16 workers the frontier starts above the fan-out threshold and ends
// below it, so the level loop switches between the parallel fan-out and
// its sequential bailout mid-run; both paths must record the same graph,
// the same invariant telemetry and the same trace digest.
func TestChainSmoke(t *testing.T) {
	prev := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(prev)
	const lanes, depth = 300, 500
	inits := []braidState{{lane: -1}}
	refDig := obs.NewDigest()
	want, err := Explore(inits, braidExpand(lanes, depth), Options{Parallelism: 1, Sink: refDig, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if wantStates := braidStates(lanes, depth); len(want.States) != wantStates {
		t.Fatalf("braid states = %d, want %d", len(want.States), wantStates)
	}
	for _, nw := range []int{2, 8, 16} {
		dig := obs.NewDigest()
		got, err := Explore(inits, braidExpand(lanes, depth),
			Options{Parallelism: nw, Sink: dig, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("workers=%d: %v", nw, err)
		}
		mustEqualResults(t, fmt.Sprintf("braid workers=%d", nw), want, got)
		if dig.Sum() != refDig.Sum() {
			t.Errorf("braid workers=%d: trace digest diverged", nw)
		}
		if msg := diffStats(want.Stats, got.Stats); msg != "" {
			t.Errorf("braid workers=%d: %s", nw, msg)
		}
	}
}

// TestRaceChain is the deep-narrow shape of the race gate: the tapered
// braid at GOMAXPROCS=16 with 8 and 16 workers, where the level loop
// alternates between forking workers over a few hundred states and
// expanding the level on the coordinator alone.
func TestRaceChain(t *testing.T) {
	prev := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(prev)
	const lanes, depth = 300, 400
	inits := []braidState{{lane: -1}}
	want, err := Explore(inits, braidExpand(lanes, depth), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if wantStates := braidStates(lanes, depth); len(want.States) != wantStates {
		t.Fatalf("braid states = %d, want %d", len(want.States), wantStates)
	}
	for _, nw := range []int{8, 16} {
		got, err := Explore(inits, braidExpand(lanes, depth), Options{Parallelism: nw})
		if err != nil {
			t.Fatalf("workers=%d: %v", nw, err)
		}
		mustEqualResults(t, fmt.Sprintf("chain workers=%d", nw), want, got)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/spacegen"
)

// smallChain is a chain space small enough for a unit test, checked
// against its own planted truth.
func smallChain(t *testing.T) *spacegen.Space {
	t.Helper()
	return spacegen.Generate(spacegen.Config{Seed: 3, MaxMult: 6, Chain: 400})
}

// runOnce runs the timed loop for a single iteration (a budget of 1ns
// stops it after the first) and returns the report.
func runOnce(t *testing.T, inst instance, traced bool) *report {
	t.Helper()
	r := &report{workload: "test", traced: traced, rec: newRecorder()}
	r.loop(inst, 1, io.Discard)
	return r
}

func TestPlantedWrongAnswerRaisesFailedRatio(t *testing.T) {
	sp := smallChain(t)
	good := sp.Truth
	bad := good
	bad.Terminals++

	flpGood := newFLPAnalyze(3, 1, answer{})
	flpAns, err := flpGood.verdict()
	if err != nil {
		t.Fatal(err)
	}
	flpGood.ans = flpAns
	flpBad := *flpGood
	flpBad.ans.BivalentConfigs++

	for _, traced := range []bool{false, true} {
		for _, tc := range []struct {
			name string
			inst instance
			bad  bool
		}{
			{"chain/truth", newChainOf(sp, good), false},
			{"chain/planted", newChainOf(sp, bad), true},
			{"flp/reference", flpGood, false},
			{"flp/planted", &flpBad, true},
		} {
			t.Run(fmt.Sprintf("%s/traced=%t", tc.name, traced), func(t *testing.T) {
				r := runOnce(t, tc.inst, traced)
				want := 0.0
				if tc.bad {
					want = 1
				}
				if got := r.failedRatio(); got != want {
					t.Fatalf("failed_ratio = %v (%d of %d), want %v", got, r.failed, r.attempted, want)
				}
				if res := r.result(); res.Correct == tc.bad {
					t.Fatalf("correct = %t with failed_ratio %v", res.Correct, r.failedRatio())
				}
			})
		}
	}
}

func TestFLPSeedsShareTheKnownAnswer(t *testing.T) {
	var first answer
	for seed := uint64(1); seed <= 3; seed++ {
		got, err := newFLPAnalyze(3, seed, answer{}).verdict()
		if err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			first = got
		} else if got != first {
			t.Fatalf("seed %d: verdict %+v, seed 1 gave %+v", seed, got, first)
		}
	}
	if !first.BivalentInitial || !first.AgreementViolated || first.FairLasso || first.Deadlock {
		t.Fatalf("wait-quorum(3) verdict %+v does not take the FLP safety horn", first)
	}
}

func TestSpillMatchesMem(t *testing.T) {
	full, err := newFLPAnalyze(3, 4, answer{}).verdict()
	if err != nil {
		t.Fatal(err)
	}
	w, err := newFLPSpill(3, 4, 4<<10, t.TempDir(), answer{States: full.States, Edges: full.Edges})
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if r := runOnce(t, w, true); r.failed != 0 {
		t.Fatalf("spill verdicts failed %d of %d", r.failed, r.attempted)
	}
	ents, err := os.ReadDir(w.opts.Store.Dir)
	if err != nil || len(ents) != 0 {
		t.Fatalf("spill dir after an iteration: %v entries, err %v", len(ents), err)
	}
}

func TestInputVectorsArePermutations(t *testing.T) {
	a, b := inputVectors(4, 9), inputVectors(4, 9)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed, different vectors")
	}
	seen := map[string]bool{}
	for _, v := range a {
		seen[fmt.Sprint(v)] = true
	}
	if len(a) != 16 || len(seen) != 16 {
		t.Fatalf("%d vectors, %d distinct; want 16", len(a), len(seen))
	}
	if fmt.Sprint(inputVectors(4, 10)) == fmt.Sprint(a) {
		t.Fatal("seeds 9 and 10 give the same order")
	}
}

func TestChainSpaceSizeIsSeedIndependent(t *testing.T) {
	pin := known["chain-deep"]
	sp, err := chainSpace(1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Cfg.Seed != 1 {
		t.Fatalf("seed 1 chose spacegen seed %d, want 1 itself", sp.Cfg.Seed)
	}
	if got := newChainOf(sp, sp.Truth).want(); got != pin {
		t.Fatalf("seed 1 truth %+v, committed pin %+v", got, pin)
	}
	for seed := uint64(2); seed < 6; seed++ {
		sp, err := chainSpace(seed)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := chainSpace(seed)
		if again.Cfg.Seed != sp.Cfg.Seed {
			t.Fatalf("seed %d: chose %d then %d", seed, sp.Cfg.Seed, again.Cfg.Seed)
		}
		if sp.Truth.Terminals != chainLanes || absDiff(sp.Truth.States, chainTarget) > chainTarget/100 {
			t.Fatalf("seed %d: %d lanes, %d states; want %d lanes within 1%% of %d",
				seed, sp.Truth.Terminals, sp.Truth.States, chainLanes, chainTarget)
		}
	}
}

func TestKnownAnswersCoverEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if a, ok := known[w.name]; !ok || a.States == 0 {
			t.Errorf("no known answer for %s", w.name)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run emits exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}

	sp := smallChain(t)
	for _, traced := range []bool{false, true} {
		declared := spec.EndToEnd
		if traced {
			declared = spec.PerLayer
		}
		r := runOnce(t, newChainOf(sp, sp.Truth), traced)
		r.setup = []float64{0.001}
		r.peakRSS = peakRSS()
		res := r.result()
		if len(res.Metrics) != len(declared) {
			t.Errorf("traced=%t: %d metrics emitted, %d declared", traced, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("traced=%t: metric %s: emitted %+v (present %t), declared unit %s", traced, d.Name, m, ok, d.Unit)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
			}
		}
	}
}

func TestRunMainRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "chain-deep", "-trace", "2"},
		{"-workload", "chain-deep", "-seconds", "0"},
		{"-bogus"},
	} {
		var out, errw bytes.Buffer
		if code := runMain(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result: %s", args, out.String())
		}
	}
}

func TestTailNote(t *testing.T) {
	if got := tailNote(make([]float64, 10)); !strings.HasPrefix(got, "no tail percentile") {
		t.Fatalf("10 samples: %q", got)
	}
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i)
	}
	// p50 of 20 samples has exactly ten beyond it: 10..19.
	if got := tailNote(xs); got != "p50.0=9" {
		t.Fatalf("20 samples: %q", got)
	}
}

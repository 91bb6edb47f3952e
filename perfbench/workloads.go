package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flp"
	"repro/internal/spacegen"
	"repro/internal/store"
)

// parallelism is the worker count of every exploration: the host's 2 CPUs.
const parallelism = 2

// answer is a verdict reduced to the fields a known answer pins; two
// answers compare with ==.
type answer struct {
	States            int  `json:"states"`
	Edges             int  `json:"edges"`
	BivalentConfigs   int  `json:"bivalent_configs"`
	BivalentInitial   bool `json:"bivalent_initial"`
	DeciderFound      bool `json:"decider_found"`
	AgreementViolated bool `json:"agreement_violated"`
	ValidityViolated  bool `json:"validity_violated"`
	FairLasso         bool `json:"fair_lasso"`
	Deadlock          bool `json:"deadlock"`
	Terminals         int  `json:"terminals"`
	Decided           int  `json:"decided"`
}

//go:embed answers.json
var answersJSON []byte

// known are the committed answers, keyed by workload name. answers.json
// is embedded, so a parse error is a build defect.
var known = func() map[string]answer {
	var raw map[string]struct {
		Answer answer `json:"answer"`
	}
	if err := json.Unmarshal(answersJSON, &raw); err != nil {
		panic(fmt.Sprintf("answers.json: %v", err))
	}
	out := make(map[string]answer, len(raw))
	for k, v := range raw {
		out[k] = v.Answer
	}
	return out
}()

// instance is one workload's inputs, built by setup and reused by every
// iteration of a run.
type instance interface {
	// want is the known answer every verdict is checked against.
	want() answer
	// verdict computes one verdict with no Stats and no Sink attached.
	verdict() (answer, error)
	// traced computes one verdict with Stats attached, recording spans
	// under parent, and returns it with its per-layer readings.
	traced(rec *recorder, parent, iter int) (answer, layers, error)
	close() error
}

// workload names a way to build an instance from a seed.
type workload struct {
	name  string
	setup func(seed uint64, scratch string) (instance, error)
}

var workloads = []workload{
	{"flp-wq4r1", func(seed uint64, _ string) (instance, error) {
		return newFLPAnalyze(4, seed, known["flp-wq4r1"]), nil
	}},
	{"flp-wq4r1-spill", func(seed uint64, scratch string) (instance, error) {
		return newFLPSpill(4, seed, spillBudget, scratch, known["flp-wq4r1-spill"])
	}},
	{"chain-deep", func(seed uint64, _ string) (instance, error) {
		return newChain(seed)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputVectors is every binary input assignment of n processes, in an
// order shuffled by seed. The order renumbers the configuration graph but
// never changes it, so the known answer holds for every seed.
func inputVectors(n int, seed uint64) [][]int {
	vs := make([][]int, 1<<n)
	for mask := range vs {
		v := make([]int, n)
		for i := range v {
			v[i] = mask >> i & 1
		}
		vs[mask] = v
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
	return vs
}

// flpAnalyze is the flp-wq4r1 workload: flp.Analyze on wait-quorum(n)
// with resilience 1 on the mem store.
type flpAnalyze struct {
	proto   flp.Protocol
	vectors [][]int
	opts    flp.AnalyzeOptions
	// uniform are the two validity sub-systems Analyze re-explores,
	// replayed on their own in the traced run to time that layer.
	uniform []core.System[string]
	ans     answer
}

func newFLPAnalyze(n int, seed uint64, want answer) *flpAnalyze {
	p := flp.NewWaitQuorum(n)
	one := 1
	w := &flpAnalyze{proto: p, vectors: inputVectors(n, seed), ans: want}
	w.opts = flp.AnalyzeOptions{InputVectors: w.vectors, Resilience: &one, Parallelism: parallelism}
	for _, v := range []int{0, 1} {
		u := make([]int, n)
		for i := range u {
			u[i] = v
		}
		w.uniform = append(w.uniform, flp.NewSystem(p, [][]int{u}, 1))
	}
	return w
}

func (w *flpAnalyze) want() answer { return w.ans }
func (w *flpAnalyze) close() error { return nil }

func (w *flpAnalyze) verdict() (answer, error) {
	rep, err := flp.Analyze(w.proto, w.opts)
	return reportAnswer(rep), err
}

func reportAnswer(rep flp.Report) answer {
	return answer{
		States: rep.States, Edges: rep.Edges, BivalentConfigs: rep.BivalentConfigs,
		BivalentInitial: rep.HasBivalentInitial, DeciderFound: rep.DeciderFound,
		AgreementViolated: rep.AgreementViolated, ValidityViolated: rep.ValidityViolated,
		FairLasso: rep.NondecidingLasso != nil, Deadlock: rep.HasDeadlock,
	}
}

func (w *flpAnalyze) traced(rec *recorder, parent, iter int) (answer, layers, error) {
	var st engine.Stats
	opts := w.opts
	opts.Stats = &st
	before := readUsage()
	id := rec.begin("flp.Analyze", parent, iter)
	rep, err := flp.Analyze(w.proto, opts)
	rec.end(id)
	after := readUsage()
	if err != nil {
		return answer{}, nil, err
	}
	// Analyze explores the main graph first, and its Stats time that
	// exploration: record it as the first child of the Analyze span.
	a := rec.spans[id]
	rec.add("engine.explore", id, iter, a.Start, a.Start+int64(st.Elapsed))
	l := newLayers()
	l.engine(st)
	l.gc(before, after)

	// The two validity re-explorations, replayed with Analyze's options.
	var validity time.Duration
	var validityAlloc uint64
	eopts := core.ExploreOptions{Parallelism: parallelism}
	for _, sys := range w.uniform {
		b := readUsage()
		vid := rec.begin("engine.validity_explore", parent, iter)
		_, err := core.Explore(sys, eopts)
		validity += rec.end(vid)
		validityAlloc += readUsage().alloc - b.alloc
		if err != nil {
			return answer{}, nil, err
		}
	}
	l["engine.validity_explore_s"] = validity.Seconds()

	// The main exploration alone: what it allocates, and what its graph
	// keeps alive once it returns.
	g, eb, ea, retained, err := footprint(rec, "core.Explore", parent, iter, func() (*core.Graph[string], error) {
		return core.Explore(flp.NewSystem(w.proto, w.vectors, 1), eopts)
	})
	if err != nil {
		return answer{}, nil, err
	}
	explAlloc := ea.alloc - eb.alloc
	l["engine.alloc_bytes"] = float64(explAlloc)
	l["core.graph_bytes_per_state"] = float64(retained) / float64(g.Len())

	l["flp.analysis_s"] = analysisResidual(rec.selfTime(id), validity).Seconds()
	l["flp.analysis_alloc_bytes"] = float64(subFloor(after.alloc-before.alloc, explAlloc+validityAlloc))
	return reportAnswer(rep), l, nil
}

// analysisResidual is the analysis share of flp.Analyze: the Analyze
// span's self time (its main exploration already taken out) minus the two
// validity re-explorations, which are timed on their own. The parts are
// measured in separate calls, so noise could make the difference negative;
// it is floored at zero.
func analysisResidual(analyzeSelf, validity time.Duration) time.Duration {
	return max(analyzeSelf-validity, 0)
}

// subFloor is a-b floored at zero.
func subFloor(a, b uint64) uint64 {
	if b > a {
		return 0
	}
	return a - b
}

// footprint runs one exploration under a span. It returns the result,
// the usage readings just before and after the call, and the live heap the
// result holds once a GC has run.
func footprint[G any](rec *recorder, name string, parent, iter int, call func() (G, error)) (g G, before, after usage, retained uint64, err error) {
	base := liveHeap()
	before = readUsage()
	id := rec.begin(name, parent, iter)
	g, err = call()
	rec.end(id)
	after = readUsage()
	retained = subFloor(liveHeap(), base)
	runtime.KeepAlive(g)
	return g, before, after, retained, err
}

// spillBudget is the spill store's payload budget: far below the ~34 MB
// payload of wait-quorum n=4, so most states spill.
const spillBudget = 8 << 20

// flpSpill is the flp-wq4r1-spill workload: the configuration graph of
// flp-wq4r1 explored through the spill store, with no analysis.
type flpSpill struct {
	sys  core.System[string]
	opts core.ExploreOptions
	ans  answer
}

func newFLPSpill(n int, seed uint64, budget int64, scratch string, want answer) (*flpSpill, error) {
	dir, err := os.MkdirTemp(scratch, "spill-")
	if err != nil {
		return nil, fmt.Errorf("spill dir: %w", err)
	}
	return &flpSpill{
		sys: flp.NewSystem(flp.NewWaitQuorum(n), inputVectors(n, seed), 1),
		opts: core.ExploreOptions{Parallelism: parallelism,
			Store: store.Config{Kind: store.Spill, MaxBytes: budget, Dir: dir}},
		ans: want,
	}, nil
}

func (w *flpSpill) want() answer { return w.ans }
func (w *flpSpill) close() error { return os.RemoveAll(w.opts.Store.Dir) }

// explore runs one exploration and empties the spill directory after it,
// so every iteration starts from the same disk state.
func (w *flpSpill) explore(opts core.ExploreOptions) (*core.Graph[string], error) {
	g, err := core.Explore(w.sys, opts)
	if err != nil {
		return nil, err
	}
	return g, clearDir(w.opts.Store.Dir)
}

func graphAnswer(g *core.Graph[string]) answer { return answer{States: g.Len(), Edges: g.NumEdges()} }

func (w *flpSpill) verdict() (answer, error) {
	g, err := w.explore(w.opts)
	if err != nil {
		return answer{}, err
	}
	return graphAnswer(g), nil
}

func (w *flpSpill) traced(rec *recorder, parent, iter int) (answer, layers, error) {
	var st engine.Stats
	opts := w.opts
	opts.Stats = &st
	g, before, after, retained, err := footprint(rec, "core.Explore", parent, iter, func() (*core.Graph[string], error) {
		return w.explore(opts)
	})
	if err != nil {
		return answer{}, nil, err
	}
	l := newLayers()
	l.engine(st)
	l.gc(before, after)
	l["engine.alloc_bytes"] = float64(after.alloc - before.alloc)
	l["core.graph_bytes_per_state"] = float64(retained) / float64(g.Len())
	return graphAnswer(g), l, nil
}

func clearDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// Chain-space parameters. Seed 1 draws 24 lanes of depth 77,888.
const (
	chainMaxMult = 26
	chainDepth   = 100_000
	chainLanes   = 24
	chainTarget  = 1 + 24*77_888
	// chainCandidates is how many spacegen seeds setup examines per
	// workload seed; a fixed count keeps setup time independent of the seed.
	chainCandidates = 4096
)

// chainSpace picks the chain space of a workload seed. spacegen draws lane
// count and depth from its own seed, so one draw would size the workload
// anywhere from 50k to 2.6M states. Instead setup examines a fixed run of
// spacegen seeds derived from the workload seed, starting with the seed
// itself, and keeps the one with chainLanes lanes whose state count is
// closest to chainTarget: the work per verdict stays the same across seeds
// while the space itself changes.
func chainSpace(seed uint64) (*spacegen.Space, error) {
	var best *spacegen.Space
	for k := uint64(0); k < chainCandidates; k++ {
		sp := spacegen.Generate(spacegen.Config{
			Seed: seed + k*0x9E3779B97F4A7C15, MaxMult: chainMaxMult, Chain: chainDepth,
		})
		if sp.Truth.Terminals != chainLanes {
			continue
		}
		if best == nil || absDiff(sp.Truth.States, chainTarget) < absDiff(best.Truth.States, chainTarget) {
			best = sp
		}
	}
	if best == nil {
		return nil, fmt.Errorf("chain-deep: no %d-lane space among %d seeds from %d", chainLanes, chainCandidates, seed)
	}
	return best, nil
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// chain is the chain-deep workload: engine.Explore over a deep, narrow
// spacegen chain space, checked against spacegen's closed-form Truth.
type chain struct {
	sp   *spacegen.Space
	opts engine.Options
	ans  answer
}

func newChain(seed uint64) (*chain, error) {
	sp, err := chainSpace(seed)
	if err != nil {
		return nil, err
	}
	return newChainOf(sp, sp.Truth), nil
}

func newChainOf(sp *spacegen.Space, truth spacegen.Truth) *chain {
	return &chain{
		sp:   sp,
		opts: engine.Options{Parallelism: parallelism, MaxStates: truth.States + 1},
		ans:  answer{States: truth.States, Terminals: truth.Terminals, Decided: truth.Decided},
	}
}

func (w *chain) want() answer { return w.ans }
func (w *chain) close() error { return nil }

func (w *chain) explore(opts engine.Options) (*engine.Result[string], answer, error) {
	res, err := engine.Explore([]string{w.sp.Init()}, w.sp.ExpandFunc(), opts)
	if err != nil {
		return nil, answer{}, err
	}
	a := answer{States: len(res.States)}
	for i, s := range res.States {
		if len(res.Edges[i]) == 0 {
			a.Terminals++
			if w.sp.DecidedState(s) {
				a.Decided++
			}
		}
	}
	return res, a, nil
}

func (w *chain) verdict() (answer, error) {
	_, a, err := w.explore(w.opts)
	return a, err
}

func (w *chain) traced(rec *recorder, parent, iter int) (answer, layers, error) {
	var st engine.Stats
	opts := w.opts
	opts.Stats = &st
	var a answer
	res, before, after, retained, err := footprint(rec, "engine.Explore", parent, iter, func() (*engine.Result[string], error) {
		res, got, err := w.explore(opts)
		a = got
		return res, err
	})
	if err != nil {
		return answer{}, nil, err
	}
	l := newLayers()
	l.engine(st)
	l.gc(before, after)
	l["engine.alloc_bytes"] = float64(after.alloc - before.alloc)
	l["core.graph_bytes_per_state"] = float64(retained) / float64(len(res.States))
	return a, l, nil
}

package engine

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// runSchedRef runs the barrier w=1 reference for a scheduler-equivalence
// check and returns the Result plus its trace digest. err is filtered the
// way the differential oracle filters it: ErrStateLimit still carries the
// canonical partial Result.
func runSchedRef(t *testing.T, inits []string, expand ExpandFunc[string], opts Options) (*Result[string], *obs.Digest, error) {
	t.Helper()
	dig := obs.NewDigest()
	opts.Parallelism = 1
	opts.Sink, opts.SnapshotEvery = dig, -1
	res, err := Explore(inits, expand, opts)
	if err != nil && !errors.Is(err, ErrStateLimit) {
		t.Fatalf("barrier reference: %v", err)
	}
	return res, dig, err
}

// mustMatchSteal runs the same exploration under Sched="steal" at the
// given worker count and checks the full scheduler-equivalence contract
// against the barrier reference: byte-identical Result, equal trace
// digest, equal invariant telemetry, same error class, and internally
// consistent stats.
func mustMatchSteal(t *testing.T, label string, inits []string, expand ExpandFunc[string],
	opts Options, nw int, want *Result[string], wantDig *obs.Digest, wantErr error) {
	t.Helper()
	dig := obs.NewDigest()
	opts.Sched = "steal"
	opts.Parallelism = nw
	opts.Sink, opts.SnapshotEvery = dig, -1
	got, err := Explore(inits, expand, opts)
	if errors.Is(wantErr, ErrStateLimit) != errors.Is(err, ErrStateLimit) {
		t.Fatalf("%s: error class diverged: barrier %v, steal %v", label, wantErr, err)
	}
	if err != nil && !errors.Is(err, ErrStateLimit) {
		t.Fatalf("%s: %v", label, err)
	}
	mustEqualResults(t, label, want, got)
	if dig.Sum() != wantDig.Sum() {
		t.Errorf("%s: trace digest diverged: steal %s, barrier %s", label, dig.Sum(), wantDig.Sum())
	}
	if msg := diffStats(want.Stats, got.Stats); msg != "" {
		t.Errorf("%s: invariant telemetry diverged: %s", label, msg)
	}
	if msg := statsConsistency(got); msg != "" {
		t.Errorf("%s: inconsistent telemetry: %s", label, msg)
	}
	if got.Stats.Sched != "steal" {
		t.Errorf("%s: Stats.Sched = %q, want \"steal\"", label, got.Stats.Sched)
	}
}

// TestStealSchedulerDifferential is the scheduler-equivalence acceptance
// matrix: every reduction stack (full, canon, POR, canon+POR — the POR
// rows exercise the epoch submode) over the mem and spill backends (spill
// also forces epoch mode), at workers 1, 2, 8 and 16, must reproduce the
// barrier scheduler's canonical Result, trace digest and invariant
// telemetry byte for byte.
func TestStealSchedulerDifferential(t *testing.T) {
	const n = 16
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
				opts := m.opts
				opts.Store = sc.cfg
				opts.VerifyAliasing = 4
				want, wantDig, wantErr := runSchedRef(t, inits, gridExpandBytes(n), opts)
				for _, nw := range []int{1, 2, 8, 16} {
					mustMatchSteal(t, fmt.Sprintf("%s/%s workers=%d", m.name, sc.name, nw),
						inits, gridExpandBytes(n), opts, nw, want, wantDig, wantErr)
				}
			})
		}
	}
}

// TestStealTruncation pins the epoch-granular MaxStates contract: the
// free-running scheduler overshoots the limit during discovery, but the
// canonically truncated Result, the ErrStateLimit error, the truncation
// level and the derived counters must all match the barrier scheduler's.
func TestStealTruncation(t *testing.T) {
	const n = 16
	inits := []string{"0,0"}
	cases := []struct {
		name string
		opts Options
	}{
		{"full", Options{MaxStates: 100}},
		{"canon", Options{MaxStates: 40, Canon: sortCanon, CanonBytes: sortCanonBytes}},
		{"por", Options{MaxStates: 20, Independent: gridIndep}},
		{"spill", Options{MaxStates: 100, Store: store.Config{Kind: store.Spill, MaxBytes: 1 << 10, PageBits: 5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantDig, wantErr := runSchedRef(t, inits, gridExpandBytes(n), tc.opts)
			if !errors.Is(wantErr, ErrStateLimit) || !want.Truncated {
				t.Fatalf("barrier reference not truncated: err=%v truncated=%v", wantErr, want.Truncated)
			}
			for _, nw := range []int{1, 8} {
				mustMatchSteal(t, fmt.Sprintf("%s workers=%d", tc.name, nw),
					inits, gridExpandBytes(n), tc.opts, nw, want, wantDig, wantErr)
			}
		})
	}
}

// TestStealBitstate covers the lossy backend under steal: bitstate does
// not implement the single-writer interning extension, so ownership is
// purely a scheduling concern and interning takes the shard lock. At full
// fingerprint width the run is collision-free on this input, so the graph
// still matches the barrier run exactly (and stays flagged lossy).
func TestStealBitstate(t *testing.T) {
	inits := []string{"0,0"}
	opts := Options{Store: store.Config{Kind: store.Bitstate}}
	want, wantDig, wantErr := runSchedRef(t, inits, gridExpandBytes(12), opts)
	if !want.Stats.Lossy {
		t.Fatal("bitstate reference not flagged lossy")
	}
	for _, nw := range []int{1, 8} {
		mustMatchSteal(t, fmt.Sprintf("bitstate workers=%d", nw),
			inits, gridExpandBytes(12), opts, nw, want, wantDig, wantErr)
	}
}

// TestStealObsPassive is the observability-passivity gate for the steal
// scheduler: attaching a sink with aggressive timer snapshots (which read
// the live scheduler gauges — steals, handoff batches, queue occupancy —
// concurrently with free-running discovery) must not perturb the
// exploration. Results are compared byte for byte against a sink-free run.
func TestStealObsPassive(t *testing.T) {
	const n = 20
	inits := []string{"0,0"}
	plain := Options{Sched: "steal", Parallelism: 8}
	want, err := Explore(inits, gridExpandBytes(n), plain)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recSink{}
	observed := plain
	observed.Sink = rec
	observed.SnapshotEvery = 100 * time.Microsecond
	got, err := Explore(inits, gridExpandBytes(n), observed)
	if err != nil {
		t.Fatal(err)
	}
	mustEqualResults(t, "steal with sink", want, got)
	if msg := diffStats(want.Stats, got.Stats); msg != "" {
		t.Errorf("sink perturbed invariant telemetry: %s", msg)
	}
	rec.mu.Lock()
	events := rec.events
	rec.mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	sawSched := false
	for _, ev := range events {
		if ev.Kind == obs.KindRunStart && ev.Config != nil && ev.Config.Sched == "steal" {
			sawSched = true
		}
	}
	if !sawSched {
		t.Error("run_start event does not carry Sched=steal")
	}
}

// recSink records every published event; Publish is concurrency-safe, as
// the Sink contract requires (the monitor goroutine publishes snapshots
// concurrently with the coordinator's deterministic events).
type recSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recSink) Publish(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// braidState is one state of the deep-narrow workload below: `lanes`
// parallel chains of length `depth` hanging off a single root (lane -1).
type braidState struct{ lane, pos int32 }

// braidExpand is the chain topology the steal scheduler exists for:
// branching factor ~1, depth in the thousands. The barrier scheduler
// degenerates to sequential execution on it (every level has at most
// `lanes` states); free-running discovery keeps all workers busy walking
// lanes concurrently and forwarding cross-shard successors.
func braidExpand(lanes, depth int32) ExpandFunc[braidState] {
	return func(s braidState, x *Ctx[braidState]) {
		if s.lane < 0 {
			for l := int32(0); l < lanes; l++ {
				x.Emit(braidState{lane: l, pos: 1}, "start", int(l))
			}
			return
		}
		if s.pos < depth {
			x.Emit(braidState{lane: s.lane, pos: s.pos + 1}, "step", int(s.lane))
		}
	}
}

// TestStealChainSmoke drives the deep-narrow braid at GOMAXPROCS=16 under
// both schedulers and checks the byte-identity contract plus the planted
// closed-form state count. This is the shape where free-running discovery
// must not deadlock, livelock or drop lane tails: progress depends
// entirely on handoff batches flushing promptly when workers go idle.
func TestStealChainSmoke(t *testing.T) {
	prev := runtime.GOMAXPROCS(16)
	defer runtime.GOMAXPROCS(prev)
	const lanes, depth = 8, 1500
	inits := []braidState{{lane: -1}}
	refDig := obs.NewDigest()
	want, err := Explore(inits, braidExpand(lanes, depth), Options{Parallelism: 1, Sink: refDig, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if wantStates := 1 + lanes*depth; len(want.States) != wantStates {
		t.Fatalf("braid states = %d, want %d", len(want.States), wantStates)
	}
	for _, nw := range []int{2, 8, 16} {
		dig := obs.NewDigest()
		got, err := Explore(inits, braidExpand(lanes, depth),
			Options{Sched: "steal", Parallelism: nw, Sink: dig, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("steal workers=%d: %v", nw, err)
		}
		mustEqualResults(t, fmt.Sprintf("braid steal workers=%d", nw), want, got)
		if dig.Sum() != refDig.Sum() {
			t.Errorf("braid steal workers=%d: trace digest diverged", nw)
		}
		if msg := diffStats(want.Stats, got.Stats); msg != "" {
			t.Errorf("braid steal workers=%d: %s", nw, msg)
		}
	}
}

// TestStealUnknownSched pins the option-validation error scheme.
func TestStealUnknownSched(t *testing.T) {
	_, err := Explore([]string{"0,0"}, gridExpandBytes(4), Options{Sched: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("Sched=bogus: err = %v, want unknown-scheduler error", err)
	}
}

// TestStealVerifyCanon checks the sampled canonicalizer falsifier still
// fails fast under free-running discovery: without level barriers the
// workers poll the sticky verify error per expansion instead.
func TestStealVerifyCanon(t *testing.T) {
	broken := func(s string) string { return s + "#" } // never idempotent
	_, err := Explore([]string{"0,0"}, gridExpandBytes(8),
		Options{Sched: "steal", Parallelism: 8, Canon: broken, VerifyCanon: 1})
	if !errors.Is(err, ErrCanonUnsound) {
		t.Fatalf("broken canon under steal: err = %v, want ErrCanonUnsound", err)
	}
}

// TestStealVerifyAliasing checks the free-running aliasing falsifier
// (fingerprint-signature comparison instead of the barrier scheduler's
// id-based Probe) catches a buffer-retaining system.
func TestStealVerifyAliasing(t *testing.T) {
	r := &retainingExpand{}
	_, err := Explore([]string{"a"}, r.expand,
		Options{Sched: "steal", Parallelism: 1, VerifyAliasing: 1, MaxStates: 100})
	if !errors.Is(err, ErrAliasUnsound) {
		t.Fatalf("buffer-retaining system under steal: err = %v, want ErrAliasUnsound", err)
	}
	if !strings.Contains(err.Error(), `label="step"`) {
		t.Fatalf("falsifier message does not name the transition's label: %v", err)
	}
	rl := &relabelingExpand{}
	_, err = Explore([]string{"a"}, rl.expand,
		Options{Sched: "steal", Parallelism: 1, VerifyAliasing: 1})
	if !errors.Is(err, ErrAliasUnsound) {
		t.Fatalf("relabeling system under steal: err = %v, want ErrAliasUnsound", err)
	}
	for _, want := range []string{`label="tick2"`, `label="tick1"`} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("steal falsifier message lacks %s: %v", want, err)
		}
	}
}

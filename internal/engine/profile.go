package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Phase-attribution profiling. Enabled whenever the caller can observe the
// result (Options.Stats or Options.Sink installed); with neither, every
// worker's prof pointer stays nil and the engine keeps its zero-cost
// disabled path. The design keeps clock reads off the per-state hot path:
//
//   - Coarse counters (expand, barrier-wait) are timed per level, never
//     per state: each worker reads the clock when it enters and leaves a
//     level's expansion loop, so consecutive expansions share one interval.
//   - The fine canon/intern split inside expansion time is *sampled*: one
//     state in 64 (by provisional id) is timed end-to-end, with its
//     canonicalization and hash+intern sections timed individually along
//     the Ctx emit paths. Sample counters are reported raw
//     (obs.Phases.Sample*) so consumers scale them against each other.
//   - Coordinator-only phases (store maintenance, replay) are timed
//     directly around their calls.
//
// Everything recorded here is timing, never structure: profiles are
// excluded from trace digests and from diffStats, so the determinism
// contract (byte-identical results at any worker count, with or without
// profiling) is untouched. The overhead contract is the obs layer's ≤3%;
// measured figures live in EXPERIMENTS.md.

// profSampleMask selects 1 state in 64 (provisional id & mask == 0) for
// fine-grained timing. Provisional ids are scheduling-dependent, which is
// fine: the sample population varies run to run, the reported fractions
// converge, and nothing digest-relevant depends on them.
const profSampleMask = 63

// phaseProf is one worker's phase profile. The counters are atomics so
// the telemetry monitor can read mid-run; last (the start of the running
// expand interval) is owned by the worker's current goroutine and never
// read elsewhere.
type phaseProf struct {
	expand  atomic.Int64
	barrier atomic.Int64
	last    time.Time

	sampled      atomic.Uint64
	sampleExpand atomic.Int64
	sampleCanon  atomic.Int64
	sampleIntern atomic.Int64
	expandLat    obs.Hist
}

// startExpand opens an expand interval (a worker entering a level).
func (p *phaseProf) startExpand() { p.last = time.Now() }

// stopExpand folds the open expand interval into the expand counter (a
// worker leaving a level).
func (p *phaseProf) stopExpand() { p.expand.Add(int64(time.Since(p.last))) }

// noteSample records one fine-sampled state's end-to-end expansion time.
func (p *phaseProf) noteSample(d time.Duration) {
	ns := int64(d)
	p.sampled.Add(1)
	p.sampleExpand.Add(ns)
	p.expandLat.Observe(ns)
}

// snapshot renders the worker's counters as an obs.Phases (coordinator
// phases excluded; collectPhases adds those to the aggregate only).
func (p *phaseProf) snapshot() obs.Phases {
	return obs.Phases{
		ExpandNs:       p.expand.Load(),
		BarrierWaitNs:  p.barrier.Load(),
		SampledStates:  p.sampled.Load(),
		SampleExpandNs: p.sampleExpand.Load(),
		SampleCanonNs:  p.sampleCanon.Load(),
		SampleInternNs: p.sampleIntern.Load(),
	}
}

// waitBarrier is the coordinator's fork/join wait, attributed to the
// coordinating worker's barrier phase (nil-tolerant for unprofiled runs).
func waitBarrier(p *phaseProf, wg *sync.WaitGroup) {
	if p == nil {
		wg.Wait()
		return
	}
	t := time.Now()
	wg.Wait()
	p.barrier.Add(int64(time.Since(t)))
}

// profiled reports whether this run records phases.
func (e *explorer[S]) profiled() bool { return e.workers[0].prof != nil }

// maintainStore wraps store.Maintain with store-I/O attribution.
func (e *explorer[S]) maintainStore(keepFrom int32) error {
	if !e.profiled() {
		return e.store.Maintain(keepFrom)
	}
	t := time.Now()
	err := e.store.Maintain(keepFrom)
	e.profStoreIO.Add(int64(time.Since(t)))
	return err
}

// replayTimed wraps the sequential replay pass with its attribution.
func (e *explorer[S]) replayTimed(initIDs []int32, limit int) (*Result[S], error) {
	if !e.profiled() {
		return e.replay(initIDs, limit)
	}
	t := time.Now()
	res, err := e.replay(initIDs, limit)
	e.profReplay.Add(int64(time.Since(t)))
	return res, err
}

// livePhases is the telemetry monitor's mid-run aggregate view: worker
// counters summed, coordinator phases added, plus the merged sampled
// expansion-latency histogram (nil while empty). Reads only atomics, so it
// is safe against running workers; in-flight phase intervals are simply
// not yet folded in.
func (e *explorer[S]) livePhases() (obs.Phases, *obs.HistSnap) {
	var agg obs.Phases
	var lat obs.HistSnap
	if !e.profiled() {
		return agg, nil
	}
	for _, ws := range e.workers {
		agg.Add(ws.prof.snapshot())
		lat.Add(ws.prof.expandLat.Snapshot())
	}
	agg.StoreIONs = e.profStoreIO.Load()
	agg.ReplayNs = e.profReplay.Load()
	if lat.Count == 0 {
		return agg, nil
	}
	return agg, &lat
}

// collectPhases fills st's final phase profile: per-worker breakdowns,
// the run-wide aggregate, and the merged sampled-latency histogram.
func (e *explorer[S]) collectPhases(st *Stats) {
	if !e.profiled() {
		return
	}
	var agg obs.Phases
	var lat obs.HistSnap
	for _, ws := range e.workers {
		p := ws.prof.snapshot()
		st.WorkerPhases = append(st.WorkerPhases, p)
		agg.Add(p)
		lat.Add(ws.prof.expandLat.Snapshot())
	}
	agg.StoreIONs = e.profStoreIO.Load()
	agg.ReplayNs = e.profReplay.Load()
	st.Phases = agg
	st.ExpandLat = lat
}

package main

import (
	"repro/internal/engine"
)

// metricDef names a reported metric and its unit. The two lists below are
// the end_to_end and per_layer lists of BENCHMARK.json, in its order.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"verdict_s", "s"},
	{"cpu_s", "s"},
	{"alloc_bytes", "B"},
	{"peak_rss_bytes", "B"},
	{"setup_s", "s"},
}

var layerMetrics = []metricDef{
	{"flp.analysis_s", "s"},
	{"flp.analysis_alloc_bytes", "B"},
	{"engine.explore_s", "s"},
	{"engine.validity_explore_s", "s"},
	{"engine.alloc_bytes", "B"},
	{"engine.expand_frac", "ratio"},
	{"engine.intern_frac", "ratio"},
	{"engine.dedup_ratio", "ratio"},
	{"engine.barrier_frac", "ratio"},
	{"engine.idle_frac", "ratio"},
	{"engine.handoff_frac", "ratio"},
	{"engine.replay_frac", "ratio"},
	{"engine.levels", "count"},
	{"core.graph_bytes_per_state", "B/state"},
	{"store.io_frac", "ratio"},
	{"store.bytes_spilled", "B"},
	{"store.segments", "count"},
	{"store.seg_reads", "count"},
	{"store.page_cache_hit_ratio", "ratio"},
	{"store.ram_bytes", "B"},
	{"gc.cpu_s", "s"},
	{"gc.cycles", "count"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
}

// layers holds one traced iteration's per-layer readings. A layer the
// workload does not exercise reads 0.
type layers map[string]float64

func newLayers() layers {
	l := layers{}
	for _, m := range layerMetrics {
		l[m.name] = 0
	}
	return l
}

// engine reads the exploration and store layers from the Stats of a
// traced call. Phase fractions are shares of the summed worker clock.
func (l layers) engine(st engine.Stats) {
	p := st.Phases
	frac := func(ns int64) float64 {
		if t := p.TotalNs(); t > 0 {
			return float64(ns) / float64(t)
		}
		return 0
	}
	l["engine.explore_s"] = st.Elapsed.Seconds()
	l["engine.expand_frac"] = frac(p.ExpandNs)
	// The hash+intern share is sampled within expansion (1 state in 64).
	l["engine.intern_frac"] = frac(p.ExpandNs) * p.InternFrac()
	if gen := st.DedupHits + uint64(st.States); gen > 0 {
		l["engine.dedup_ratio"] = float64(st.States) / float64(gen)
	}
	l["engine.barrier_frac"] = frac(p.BarrierWaitNs)
	l["engine.idle_frac"] = frac(p.IdleNs)
	l["engine.handoff_frac"] = frac(p.HandoffNs)
	l["engine.replay_frac"] = frac(p.ReplayNs)
	l["engine.levels"] = float64(st.Depth)

	s := st.Store
	l["store.io_frac"] = frac(p.StoreIONs)
	l["store.bytes_spilled"] = float64(s.BytesSpilled)
	l["store.segments"] = float64(s.Segments)
	l["store.seg_reads"] = float64(s.SegmentReads)
	if reads := s.PageCacheHits + s.SegmentReads; reads > 0 {
		l["store.page_cache_hit_ratio"] = float64(s.PageCacheHits) / float64(reads)
	}
	l["store.ram_bytes"] = float64(s.BytesInRAM)
}

// gc reads the collector's work between two usage readings.
func (l layers) gc(before, after usage) {
	l["gc.cpu_s"] = after.gcCPU - before.gcCPU
	l["gc.cycles"] = float64(after.gcCycles - before.gcCycles)
}

package engine

import (
	"sync"
	"sync/atomic"
)

// This file is the successor record: each worker
// appends its expansions' transitions to its own chunked, pointer-free
// rawEdge record, a paged span table maps every provisional id to the
// slice of a worker's record holding its successors, and the replay pass
// reads the two back after discovery.

// rawEdge is the provisional-id form of a transition, recorded by workers
// during discovery and rewritten by the canonicalization replay. It holds
// no pointers (label is an id into the run's labelTable), so the record is
// never scanned by the garbage collector.
type rawEdge struct {
	to    int32
	actor int32
	label int32
}

// span locates one state's recorded successors: n rawEdges from global
// offset off in worker's chunked record. worker == -1 marks a state that
// was interned but not expanded.
type span struct {
	worker int32
	off    int32
	n      int32
}

// edgeChunkBits sizes the chunks of a worker's successor record (2^16
// rawEdges). Chunks are fixed-capacity and never reallocate: a full record
// grows by one chunk, not by copying.
const (
	edgeChunkBits = 16
	edgeChunkCap  = 1 << edgeChunkBits
)

// labelTable is the run-wide label alphabet: rawEdge.label indexes strs.
// Workers resolve ids through their private labelIDs caches and take mu
// only on a cache miss — once per distinct label per worker.
type labelTable struct {
	mu   sync.Mutex
	ids  map[string]int32
	strs []string
}

// id returns label's id, assigning the next one on first sight.
func (t *labelTable) id(label string) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[label]
	if !ok {
		id = int32(len(t.strs))
		t.strs = append(t.strs, label)
		t.ids[label] = id
	}
	return id
}

// text returns the label behind id. Safe while workers are still
// recording; the replay reads strs directly once they have joined.
func (t *labelTable) text(id int32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.strs[id]
}

// appendEdge records one transition.
func (w *worker[S]) appendEdge(to int32, actor int, label string) {
	i := w.edges & (edgeChunkCap - 1)
	if i == 0 {
		w.cur = make([]rawEdge, edgeChunkCap)
		w.chunks = append(w.chunks, w.cur)
	}
	w.cur[i] = rawEdge{to: to, actor: int32(actor), label: w.labelID(label)}
	w.edges++
}

// labelID resolves label to its run-wide id, through the worker's cache.
func (w *worker[S]) labelID(label string) int32 {
	if id, ok := w.labelIDs[label]; ok {
		return id
	}
	id := w.labels.id(label)
	w.labelIDs[label] = id
	return id
}

// spanPageBits sizes pagedSpans pages (2^13 spans per page).
const (
	spanPageBits = 13
	spanPageCap  = 1 << spanPageBits
)

// spanPage is one pagedSpans page: the spans of spanPageCap consecutive
// provisional ids.
type spanPage struct {
	sp []span
}

// pagedSpans is the span table, indexed by provisional id: a two-level
// paged table workers write concurrently at distinct ids without
// barriers, and that grows by whole pages instead of by copying. Pages are
// created under a mutex and published atomically (the pagetab pattern);
// span writes within a page go to distinct indices (each id is expanded by
// exactly one worker) and are read only after a level barrier, whose
// happens-before edge covers them. A span with worker == -1 marks an
// unexpanded id.
type pagedSpans struct {
	mu    sync.Mutex
	spine atomic.Pointer[[]atomic.Pointer[spanPage]]
}

func newPagedSpans() *pagedSpans {
	ps := &pagedSpans{}
	spine := make([]atomic.Pointer[spanPage], 0)
	ps.spine.Store(&spine)
	return ps
}

// page returns the page holding id index pi, creating and publishing it if
// needed.
func (ps *pagedSpans) page(pi int) *spanPage {
	spine := *ps.spine.Load()
	if pi < len(spine) {
		if pg := spine[pi].Load(); pg != nil {
			return pg
		}
	}
	return ps.grow(pi)
}

func (ps *pagedSpans) grow(pi int) *spanPage {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	spine := *ps.spine.Load()
	if pi >= len(spine) {
		next := make([]atomic.Pointer[spanPage], 2*pi+2)
		for i := range spine {
			next[i].Store(spine[i].Load())
		}
		ps.spine.Store(&next)
		spine = next
	}
	if pg := spine[pi].Load(); pg != nil {
		return pg
	}
	pg := &spanPage{sp: make([]span, spanPageCap)}
	for i := range pg.sp {
		pg.sp[i].worker = -1
	}
	spine[pi].Store(pg)
	return pg
}

func (ps *pagedSpans) set(id int32, sp span) {
	ps.page(int(id) >> spanPageBits).sp[int(id)&(spanPageCap-1)] = sp
}

// get returns the recorded span of id; a span with worker == -1 (also
// returned for ids whose page was never created) means the id was
// interned but not expanded.
func (ps *pagedSpans) get(id int32) span {
	spine := *ps.spine.Load()
	pi := int(id) >> spanPageBits
	if pi >= len(spine) {
		return span{worker: -1}
	}
	pg := spine[pi].Load()
	if pg == nil {
		return span{worker: -1}
	}
	return pg.sp[int(id)&(spanPageCap-1)]
}

// edgeAt reads one rawEdge from a worker's record by global offset.
func (e *explorer[S]) edgeAt(wk int32, off int32) rawEdge {
	return e.workers[wk].chunks[off>>edgeChunkBits][off&(edgeChunkCap-1)]
}

// chunkEdges returns span sp's rawEdges: a direct chunk subslice when the
// span does not straddle a chunk boundary (the common case), otherwise a
// copy assembled in *buf. An empty span may name a worker that never
// allocated a chunk, so it returns before indexing any.
func (e *explorer[S]) chunkEdges(sp span, buf *[]rawEdge) []rawEdge {
	if sp.n == 0 {
		return nil
	}
	lo := int(sp.off) & (edgeChunkCap - 1)
	if lo+int(sp.n) <= edgeChunkCap {
		return e.workers[sp.worker].chunks[sp.off>>edgeChunkBits][lo : lo+int(sp.n)]
	}
	b := (*buf)[:0]
	for j := int32(0); j < sp.n; j++ {
		b = append(b, e.edgeAt(sp.worker, sp.off+j))
	}
	*buf = b
	return b
}

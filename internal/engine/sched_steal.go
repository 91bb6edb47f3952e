// Work-stealing exploration scheduler: the Options.Sched == "steal"
// discovery phase. Instead of the fork/join level loop, a persistent pool
// of workers owns disjoint slices of the visited set's fingerprint shards
// (worker w owns every shard s with s % nw == w), keeps newly discovered
// states on private deques, forwards successors it does not own to the
// owning worker in fixed-capacity batches, and steals from peers when its
// own queues run dry. Discovery runs barrier-free; global termination is
// detected with a token count (one token per active worker plus one per
// in-flight batch — zero tokens means no worker can ever receive work
// again).
//
// Determinism is free: the discovery phase only decides WHICH states are
// reachable (a property of the system, not the schedule) and records each
// state's successor list (a pure function of the state). The sequential
// replay pass then renumbers the graph into sequential-BFS order exactly
// as it does for the barrier scheduler, so Results, Stats invariants and
// trace digests are byte-identical across schedulers.
//
// Two submodes share the Sched == "steal" surface:
//
//   - Free-running (no POR, store kind != spill): the full machinery above.
//     Per-emission counters that depend on knowing freshness at the emitter
//     (DedupHits) are instead derived after termination from the recorded
//     graph — see finishFree for the exact identities — and the per-level
//     telemetry events are synthesized from a post-hoc levelization of the
//     recorded spans, reproducing the barrier scheduler's event stream
//     field for field.
//
//   - Epoch mode (POR enabled, or a spill store): ample-set selection needs
//     a level-coherent view of the visited set (the C3 proviso probes
//     "discovered in an earlier level") and the spill store needs quiescent
//     maintenance windows, so discovery keeps the level structure but runs
//     it on a persistent worker pool (epochPool) instead of per-level
//     goroutine forks. Semantically identical to the barrier loop.
//
// Truncation under free-running discovery is epoch-granular: workers race
// past the limit by design (they stop as soon as any worker observes the
// store over the limit, then drain in-flight batches so every recorded
// emission resolves to an id), and a sequential completion pass expands
// whatever states below the cutoff depth the stopped workers abandoned.
// The cutoff depth k is the first level where the cumulative state count
// exceeds the limit — the same level at which the barrier scheduler stops
// — so the replay pass sees a superset of the barrier scheduler's spans
// that agrees exactly on every span replay can reach, and produces the
// same canonically truncated Result and ErrStateLimit.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

const (
	// handoffBatchCap is the entry capacity of one cross-worker handoff
	// batch: emissions bound for a peer-owned shard accumulate until the
	// batch fills (or the sender runs out of local work and flushes), so a
	// channel transfer amortizes over up to this many states.
	handoffBatchCap = 256
	// stealBatch caps how many deque entries one steal transfers.
	stealBatch = 64
	// privCap is the soft bound on a worker's private (unlocked) work
	// stack; overflow publishes the oldest half to the lockable deque where
	// peers can steal it.
	privCap = 256
)

// capturedEmit is one emission's scheduling-independent signature — the
// fingerprint of the canonical successor, the label, and the actor — used
// by the free-running VerifyAliasing falsifier, which cannot compare
// interned ids (forwarded emissions resolve their ids asynchronously).
type capturedEmit struct {
	h     uint64
	label string
	actor int32
}

// handoffEnt is one forwarded emission: the successor's fingerprint, the
// record slot the owner writes the resolved id into, and the state payload
// (either s, or — for the EmitBytes path — the blo:bhi byte range of the
// batch's buf; blo < 0 selects s).
type handoffEnt[S comparable] struct {
	h        uint64
	slot     *int32
	s        S
	blo, bhi int32
}

// handoffBatch carries up to handoffBatchCap forwarded emissions from src
// to dst. buf holds the byte payloads of EmitBytes entries, so the bytes
// path stays allocation-free: batches (with their ents and buf backing
// arrays) are recycled through the sender's free channel.
type handoffBatch[S comparable] struct {
	src, dst int32
	ents     []handoffEnt[S]
	buf      []byte
}

// stealWorker is one worker's scheduler-private state under free-running
// discovery.
type stealWorker[S comparable] struct {
	self int32

	// priv is the unlocked LIFO work stack only the owner touches; dq is
	// the lockable FIFO deque peers steal from (owner publishes priv
	// overflow to its tail, pops from head, thieves take from the tail).
	// dqLen mirrors len(dq)-head for the queue-occupancy gauge.
	priv  []int32
	mu    sync.Mutex
	dq    []int32
	head  int
	dqLen atomic.Int64

	// out[d] is the partial batch being assembled for worker d; inbox
	// receives batches from peers; free recycles this worker's batches
	// back after the receiver drained them.
	out   []*handoffBatch[S]
	inbox chan *handoffBatch[S]
	free  chan *handoffBatch[S]

	steals         atomic.Uint64
	handoffBatches atomic.Uint64
	handoffStates  atomic.Uint64

	// capture records the current expansion's emission signatures when the
	// sampled aliasing falsifier selected it; recheck is the re-expansion
	// buffer it is compared against.
	capturing bool
	capture   []capturedEmit
	recheck   []capturedEmit
}

// pushWork adds a freshly interned id to the owner's work stack,
// publishing the oldest half to the stealable deque when the stack
// overflows privCap.
func (sw *stealWorker[S]) pushWork(id int32) {
	if len(sw.priv) >= privCap {
		half := len(sw.priv) / 2
		sw.mu.Lock()
		sw.dq = append(sw.dq, sw.priv[:half]...)
		sw.mu.Unlock()
		sw.dqLen.Add(int64(half))
		n := copy(sw.priv, sw.priv[half:])
		sw.priv = sw.priv[:n]
	}
	sw.priv = append(sw.priv, id)
}

func (sw *stealWorker[S]) popPriv() (int32, bool) {
	n := len(sw.priv)
	if n == 0 {
		return 0, false
	}
	id := sw.priv[n-1]
	sw.priv = sw.priv[:n-1]
	return id, true
}

func (sw *stealWorker[S]) popShared() (int32, bool) {
	sw.mu.Lock()
	if sw.head >= len(sw.dq) {
		sw.mu.Unlock()
		return 0, false
	}
	id := sw.dq[sw.head]
	sw.head++
	if sw.head == len(sw.dq) {
		sw.dq = sw.dq[:0]
		sw.head = 0
	}
	sw.mu.Unlock()
	sw.dqLen.Add(-1)
	return id, true
}

// stealRun is the shared state of one free-running discovery phase.
type stealRun[S comparable] struct {
	e  *explorer[S]
	nw int32
	// ownMask is shardCount(nw)-1: the store's shard-selection mask, so
	// owner(h) = (h & ownMask) % nw puts every shard under exactly one
	// worker — the single-writer condition store.OwnedInterner needs.
	ownMask uint64
	limit   int
	// owned is the store's lock-skipping single-writer extension, nil when
	// the backend does not support it (ownership then still routes the
	// interning work, it just takes the shard lock).
	owned store.OwnedInterner[S]

	// tokens implements Dijkstra-style termination: it starts at nw (one
	// per worker), is incremented before every batch send and decremented
	// after the batch is processed, and a worker exchanges its token for a
	// blocking inbox wait when it runs out of work (idle). The count can
	// only reach zero when every worker is idle and no batch is in flight
	// — at which point no work can ever appear again — and the worker that
	// decrements to zero closes done.
	tokens atomic.Int64
	done   chan struct{}

	// stop asks workers to wind down (limit cut or verify error); cut
	// records that the reason was the state limit. seq, set after the
	// termination join, switches the emit paths to direct sequential
	// interning for the completion pass.
	stop atomic.Bool
	cut  atomic.Bool
	seq  bool

	ws []*stealWorker[S]
}

// getBatch returns a recycled batch or a fresh one.
func (sr *stealRun[S]) getBatch(sw *stealWorker[S]) *handoffBatch[S] {
	select {
	case b := <-sw.free:
		return b
	default:
		return &handoffBatch[S]{src: sw.self, ents: make([]handoffEnt[S], 0, handoffBatchCap)}
	}
}

// sendBatch transfers b to dst's inbox. The sender stays receptive to its
// own inbox while blocked — with every worker either processing, sending
// (and draining), or idle (and draining), inboxes always drain and no send
// cycle can deadlock. The token is taken before the send so the in-flight
// batch keeps termination at bay.
func (sr *stealRun[S]) sendBatch(w *worker[S], dst int32, b *handoffBatch[S]) {
	sw := w.sw
	sw.handoffBatches.Add(1)
	sw.handoffStates.Add(uint64(len(b.ents)))
	sr.tokens.Add(1)
	// Phase attribution: time blocked on the send (and any interleaved
	// inbox processing, which re-attributes itself) as handoff. Two clock
	// reads per batch, never per state.
	prof := w.prof
	var prev int
	if prof != nil {
		prev = prof.cur
		prof.to(phHandoff)
	}
	for {
		select {
		case sr.ws[dst].inbox <- b:
			if prof != nil {
				prof.to(prev)
			}
			return
		case nb := <-sw.inbox:
			sr.processBatch(w, nb)
		}
	}
}

// processBatch interns every forwarded emission of b (this worker owns all
// their shards), resolves their record slots, queues the fresh ones, and
// recycles the batch to its sender. Releasing the batch's termination
// token is the last step, so a batch never "disappears" from the count
// while its states are unresolved.
func (sr *stealRun[S]) processBatch(w *worker[S], b *handoffBatch[S]) {
	e := sr.e
	sw := w.sw
	// Phase attribution: the whole batch resolution is handoff time; the
	// previous phase (expand, or handoff when nested under sendBatch) is
	// restored on the way out. Two clock reads per batch.
	prof := w.prof
	var prev int
	if prof != nil {
		prev = prof.cur
		prof.to(phHandoff)
	}
	for i := range b.ents {
		ent := &b.ents[i]
		var id int32
		var fresh bool
		if ent.blo >= 0 {
			if sr.owned != nil {
				id, fresh = sr.owned.InternBytesOwned(ent.h, b.buf[ent.blo:ent.bhi])
			} else {
				id, fresh = e.bytesIntern.InternBytes(ent.h, b.buf[ent.blo:ent.bhi])
			}
		} else {
			if sr.owned != nil {
				id, fresh = sr.owned.InternOwned(ent.h, ent.s)
			} else {
				id, fresh = e.store.Intern(ent.s)
			}
		}
		*ent.slot = id
		if fresh {
			sw.pushWork(id)
		}
	}
	clear(b.ents)
	b.ents = b.ents[:0]
	b.buf = b.buf[:0]
	select {
	case sr.ws[b.src].free <- b:
	default:
	}
	if prof != nil {
		prof.to(prev)
	}
	if sr.tokens.Add(-1) == 0 {
		close(sr.done)
	}
}

// drainInbox processes every batch currently queued, without blocking.
func (sr *stealRun[S]) drainInbox(w *worker[S]) {
	for {
		select {
		case b := <-w.sw.inbox:
			sr.processBatch(w, b)
		default:
			return
		}
	}
}

// flushAll sends every non-empty partial batch; reports whether any went
// out. Workers flush before idling (a peer may be starving behind a
// half-full batch) and before winding down on stop (every recorded slot
// must resolve).
func (sr *stealRun[S]) flushAll(w *worker[S]) bool {
	sw := w.sw
	sent := false
	for dst, b := range sw.out {
		if b == nil {
			continue
		}
		sw.out[dst] = nil
		sr.sendBatch(w, int32(dst), b)
		sent = true
	}
	return sent
}

// steal takes up to half (capped at stealBatch) of the first non-empty
// peer deque's tail and returns one id, keeping the rest on priv.
func (sr *stealRun[S]) steal(sw *stealWorker[S]) (int32, bool) {
	for k := int32(1); k < sr.nw; k++ {
		v := sr.ws[(sw.self+k)%sr.nw]
		v.mu.Lock()
		avail := len(v.dq) - v.head
		if avail <= 0 {
			v.mu.Unlock()
			continue
		}
		take := (avail + 1) / 2
		if take > stealBatch {
			take = stealBatch
		}
		cutAt := len(v.dq) - take
		sw.priv = append(sw.priv, v.dq[cutAt:]...)
		v.dq = v.dq[:cutAt]
		v.mu.Unlock()
		v.dqLen.Add(-int64(take))
		sw.steals.Add(1)
		return sw.popPriv()
	}
	return 0, false
}

// idle exchanges the worker's termination token for a blocking wait:
// either a batch arrives (reclaim the token, process, resume) or done
// closes (discovery is globally quiescent). Returns false when the worker
// should exit. A batch queued in the inbox still holds its sender-granted
// token, so the count cannot hit zero with deliverable work pending.
func (sr *stealRun[S]) idle(w *worker[S]) bool {
	if sr.tokens.Add(-1) == 0 {
		close(sr.done)
		return false
	}
	// Phase attribution: only the blocking wait is idle time; batch
	// processing re-attributes itself to handoff.
	prof := w.prof
	if prof != nil {
		prof.to(phIdle)
	}
	select {
	case b := <-w.sw.inbox:
		sr.tokens.Add(1)
		if prof != nil {
			prof.to(phExpand)
		}
		sr.processBatch(w, b)
		return true
	case <-sr.done:
		if prof != nil {
			prof.to(phExpand)
		}
		return false
	}
}

// expandOne expands one owned (or stolen) state: record its span in the
// paged table, run the sampled aliasing falsifier, count the
// canonicalizer-remap delta for the levelized telemetry. Also the
// completion pass's expansion step (with sr.seq routing the emissions to
// direct sequential interning).
func (sr *stealRun[S]) expandOne(w *worker[S], id int32) {
	e := sr.e
	sw := w.sw
	off := w.edges
	s := e.store.State(id)
	sampled := e.aliasMod != 0 && e.fpOfID(id)%e.aliasMod == 0
	if sampled {
		sw.capture = sw.capture[:0]
		sw.capturing = true
	}
	var before uint64
	if e.canon != nil {
		before = w.canonHits
	}
	if prof := w.prof; prof != nil && id&profSampleMask == 0 {
		// 1-in-64 fine sample: end-to-end expansion latency plus the
		// canon/intern section split recorded along the emit paths.
		w.profSampling = true
		t := time.Now()
		e.expand(s, &w.ctx)
		prof.noteSample(time.Since(t))
		w.profSampling = false
	} else {
		e.expand(s, &w.ctx)
	}
	sw.capturing = false
	var cd int32
	if e.canon != nil {
		cd = int32(w.canonHits - before)
	}
	e.pspans.set(id, span{worker: sw.self, off: off, n: w.edges - off}, cd)
	w.steps.Add(1)
	if sampled {
		sr.checkAliasingSteal(s, w)
	}
}

// emitState is the free-running Emit hot path (to is already canonical).
// Owned successors intern immediately (lock-free when the store supports
// single-writer interning); peer-owned successors record a slot-pointer
// edge and join the batch for the owning worker.
func (sr *stealRun[S]) emitState(w *worker[S], to S, label string, actor int) {
	e := sr.e
	sw := w.sw
	h := e.fp(&to)
	if sw.capturing {
		sw.capture = append(sw.capture, capturedEmit{h: h, label: label, actor: int32(actor)})
	}
	if sr.seq {
		id, _ := e.store.Intern(to)
		w.appendEdge(id, actor, label)
		return
	}
	owner := int32(h&sr.ownMask) % sr.nw
	if owner == sw.self {
		var id int32
		var fresh bool
		if sr.owned != nil {
			id, fresh = sr.owned.InternOwned(h, to)
		} else {
			id, fresh = e.store.Intern(to)
		}
		w.appendEdge(id, actor, label)
		if fresh {
			sw.pushWork(id)
		}
		return
	}
	slot := w.appendEdge(-1, actor, label)
	b := sw.out[owner]
	if b == nil {
		b = sr.getBatch(sw)
		b.dst = owner
		sw.out[owner] = b
	}
	b.ents = append(b.ents, handoffEnt[S]{h: h, slot: slot, s: to, blo: -1})
	if len(b.ents) >= handoffBatchCap {
		sw.out[owner] = nil
		sr.sendBatch(w, owner, b)
	}
}

// emitBytes is emitState for the EmitBytes direct path: to is the
// canonical payload bytes and h their fingerprint. Forwarded payloads are
// copied into the batch's recycled buffer, keeping the path free of
// per-emission allocations.
func (sr *stealRun[S]) emitBytes(w *worker[S], to []byte, h uint64, label string, actor int) {
	e := sr.e
	sw := w.sw
	if sw.capturing {
		sw.capture = append(sw.capture, capturedEmit{h: h, label: label, actor: int32(actor)})
	}
	if sr.seq {
		id, _ := e.bytesIntern.InternBytes(h, to)
		w.appendEdge(id, actor, label)
		return
	}
	owner := int32(h&sr.ownMask) % sr.nw
	if owner == sw.self {
		var id int32
		var fresh bool
		if sr.owned != nil {
			id, fresh = sr.owned.InternBytesOwned(h, to)
		} else {
			id, fresh = e.bytesIntern.InternBytes(h, to)
		}
		w.appendEdge(id, actor, label)
		if fresh {
			sw.pushWork(id)
		}
		return
	}
	slot := w.appendEdge(-1, actor, label)
	b := sw.out[owner]
	if b == nil {
		b = sr.getBatch(sw)
		b.dst = owner
		sw.out[owner] = b
	}
	blo := int32(len(b.buf))
	b.buf = append(b.buf, to...)
	b.ents = append(b.ents, handoffEnt[S]{h: h, slot: slot, blo: blo, bhi: int32(len(b.buf))})
	if len(b.ents) >= handoffBatchCap {
		sw.out[owner] = nil
		sr.sendBatch(w, owner, b)
	}
}

// checkAliasingSteal is the free-running VerifyAliasing falsifier: it
// compares the (canonical-fingerprint, label, actor) signature sequence
// captured during the recorded expansion against a poisoned re-expansion.
// The barrier scheduler's variant compares interned ids via Probe; here
// forwarded ids resolve asynchronously and Probe would race the lock-free
// shard owners, so the comparison is by fingerprint instead (a 64-bit
// collision could in principle mask a divergence — acceptable for a
// falsifier, which only ever turns bugs into errors).
func (sr *stealRun[S]) checkAliasingSteal(s S, w *worker[S]) {
	e := sr.e
	sw := w.sw
	poisonScratch(w)
	got := sw.recheck[:0]
	x := &w.ctx
	x.sink = func(to S, label string, actor int) {
		if e.canon != nil {
			to = e.canon(to)
		}
		got = append(got, capturedEmit{h: e.fp(&to), label: label, actor: int32(actor)})
	}
	e.expand(s, x)
	x.sink = nil
	sw.recheck = got
	want := sw.capture
	if len(got) != len(want) {
		e.noteVerifyErr(fmt.Errorf("%w: state %v emitted %d transitions on poisoned re-expansion, want %d (system retains emitted or scratch buffers?)",
			ErrAliasUnsound, s, len(got), len(want)))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			e.noteVerifyErr(fmt.Errorf("%w: state %v transition %d diverged on poisoned re-expansion: got (fp=%#x label=%q actor=%d), want (fp=%#x label=%q actor=%d)",
				ErrAliasUnsound, s, i, got[i].h, got[i].label, got[i].actor, want[i].h, want[i].label, want[i].actor))
			return
		}
	}
}

// workerLoop is one worker's free-running discovery loop: drain the inbox,
// find work (private stack, shared deque, steal), expand, repeat; flush
// and go idle when dry; on stop (limit cut or verify error) flush partial
// batches and keep draining until global termination, so every recorded
// slot resolves before the join.
func (sr *stealRun[S]) workerLoop(w *worker[S]) {
	sw := w.sw
	e := sr.e
	// The phase clock free-runs in expand across the loop glue (inbox
	// drain, deque pops): only steal attempts, batch handoffs and idle
	// waits switch it, so the common path costs zero clock reads.
	prof := w.prof
	if prof != nil {
		prof.resume(phExpand)
		defer prof.flush()
	}
	for {
		sr.drainInbox(w)
		if sr.stop.Load() {
			break
		}
		id, ok := sw.popPriv()
		if !ok {
			id, ok = sw.popShared()
		}
		if !ok {
			if prof != nil {
				prof.to(phSteal)
			}
			id, ok = sr.steal(sw)
			if prof != nil {
				prof.to(phExpand)
			}
		}
		if !ok {
			if sr.flushAll(w) {
				continue
			}
			sr.drainInbox(w)
			if len(sw.priv) > 0 {
				continue
			}
			if !sr.idle(w) {
				return
			}
			continue
		}
		sr.expandOne(w, id)
		if e.store.Len() > sr.limit {
			sr.cut.Store(true)
			sr.stop.Store(true)
		}
		if e.verifySet.Load() {
			sr.stop.Store(true)
		}
	}
	sr.flushAll(w)
	for {
		sr.drainInbox(w)
		if !sr.idle(w) {
			return
		}
	}
}

// levelInfo is the post-discovery levelization of the recorded graph: the
// per-level state counts, recorded-emission counts and canonicalizer-remap
// counts a sequential BFS over the spans yields. It is the bridge from
// order-free discovery back to the barrier scheduler's level-indexed
// counters and telemetry events.
type levelInfo struct {
	sizes     []int
	edges     []uint64
	cdelta    []uint64
	cum       []int // cum[d] = states discovered through level d+1
	pids      []int32
	truncated bool
}

// levelize walks the recorded spans level by level from the initial
// states. On a cut run it doubles as the completion pass: any state below
// the cutoff depth the stopped workers left unexpanded is expanded here,
// sequentially, so the spans cover exactly (a superset of) what the
// barrier scheduler would have recorded. The walk stops at the first level
// where the cumulative count exceeds the limit — the barrier scheduler's
// truncation level.
func (e *explorer[S]) levelize(sr *stealRun[S], initIDs []int32, limit int, cut bool) (*levelInfo, error) {
	lv := &levelInfo{}
	seen := make([]bool, e.store.Len())
	cur := make([]int32, len(initIDs))
	copy(cur, initIDs)
	for _, id := range initIDs {
		seen[id] = true
	}
	total := len(initIDs)
	for len(cur) > 0 {
		lv.sizes = append(lv.sizes, len(cur))
		var next []int32
		var edgeSum, cdSum uint64
		for _, pid := range cur {
			sp, cd := e.pspans.get(pid)
			if sp.worker < 0 {
				if !cut {
					return nil, fmt.Errorf("engine: internal error: state %d unexpanded after untruncated discovery", pid)
				}
				sr.expandOne(e.workers[0], pid)
				sp, cd = e.pspans.get(pid)
			}
			edgeSum += uint64(sp.n)
			cdSum += uint64(cd)
			for j := int32(0); j < sp.n; j++ {
				r := e.edgeAt(sp.worker, sp.off+j)
				if int(r.to) >= len(seen) {
					seen = append(seen, make([]bool, int(r.to)+1-len(seen))...)
				}
				if !seen[r.to] {
					seen[r.to] = true
					next = append(next, r.to)
				}
			}
		}
		if e.canon != nil {
			lv.pids = append(lv.pids, cur...)
		}
		lv.edges = append(lv.edges, edgeSum)
		lv.cdelta = append(lv.cdelta, cdSum)
		total += len(next)
		lv.cum = append(lv.cum, total)
		cur = next
		if total > limit {
			lv.truncated = true
			break
		}
	}
	return lv, nil
}

// recountCanon recomputes RawStates and CanonHits for a truncated
// free-running canon run by re-expanding exactly the states the levelized
// walk expanded (plus the raw initial states): the live worker counters
// include overshoot expansions beyond the cutoff level, which the barrier
// scheduler never performs. Expansion purity makes the re-expansion emit
// the identical multiset the recorded pass did.
func (e *explorer[S]) recountCanon(rawInits []S, pids []int32) (int, uint64) {
	seen := make(map[uint64]struct{})
	var hits uint64
	note := func(raw S) {
		seen[e.fp(&raw)] = struct{}{}
		if e.canon(raw) != raw {
			hits++
		}
	}
	for _, s := range rawInits {
		note(s)
	}
	x := e.collectCtx(func(to S, label string, actor int) { note(to) })
	for _, pid := range pids {
		e.expand(e.store.State(pid), x)
	}
	return len(seen), hits
}

// exploreFree runs the free-running discovery phase end to end: worker
// pool, termination, verify-error and limit handling, levelization (with
// completion pass), derived stats, and the synthesized telemetry events.
func (e *explorer[S]) exploreFree(st *Stats, rawInits []S, initIDs []int32, limit, nw int) error {
	sr := &stealRun[S]{
		e:       e,
		nw:      int32(nw),
		ownMask: uint64(shardCount(nw) - 1),
		limit:   limit,
		done:    make(chan struct{}),
	}
	if oi, ok := e.store.(store.OwnedInterner[S]); ok && oi.OwnedSupported() {
		sr.owned = oi
	}
	sr.ws = make([]*stealWorker[S], nw)
	for i, w := range e.workers {
		sw := &stealWorker[S]{
			self:  int32(i),
			inbox: make(chan *handoffBatch[S], 4*nw),
			free:  make(chan *handoffBatch[S], 4*nw),
			out:   make([]*handoffBatch[S], nw),
		}
		w.sw = sw
		sr.ws[i] = sw
	}
	// initCanon is the initial states' contribution to CanonHits — the
	// baseline of the synthesized level events' canon counter.
	initCanon := e.workers[0].canonHits
	for i, id := range initIDs {
		e.workers[i%nw].sw.pushWork(id)
	}
	sr.tokens.Store(int64(nw))
	e.steal.Store(sr)
	var wg sync.WaitGroup
	for i := 1; i < nw; i++ {
		wg.Add(1)
		go func(w *worker[S]) {
			defer wg.Done()
			sr.workerLoop(w)
		}(e.workers[i])
	}
	sr.workerLoop(e.workers[0])
	wg.Wait()
	if err := e.takeVerifyErr(); err != nil {
		e.steal.Store(nil)
		return err
	}
	// Completion + levelization run sequentially with direct interning.
	sr.seq = true
	lv, err := e.levelize(sr, initIDs, limit, sr.cut.Load())
	e.steal.Store(nil)
	if err != nil {
		return err
	}
	// The completion pass runs the same sampled checks discovery does.
	if err := e.takeVerifyErr(); err != nil {
		return err
	}
	// Parity with the barrier loop's per-level maintenance: surface any
	// sticky store error deterministically before replay (mem and bitstate
	// backends no-op here; the spill backend never takes this path).
	if err := e.store.Maintain(int32(e.store.Len())); err != nil {
		return fmt.Errorf("engine: state store: %w", err)
	}
	e.finishFree(st, lv, rawInits, initCanon, len(initIDs))
	return nil
}

// finishFree derives the run's Stats from the levelized graph and
// publishes the synthesized telemetry events. The identities, all exact
// (k = len(lv.sizes) is the number of expanded levels):
//
//   - Expansions = Σ sizes[0..k-1]: the barrier scheduler expands exactly
//     the states of levels 0..k-1 (WorkerSteps keeps the live counters,
//     which on a truncated run include overshoot — hence the relaxed
//     sum(WorkerSteps) ≥ Expansions invariant for truncated steal runs).
//   - DedupHits = recorded emissions − fresh interns: every emission either
//     hit a known state or interned a fresh one, and the states of levels
//     ≤ k other than the inits are interned by exactly one emission each,
//     so dedup(levels < k) = edges(levels < k) − (states(levels ≤ k) − inits).
//     This is what the barrier scheduler counts emission by emission.
//   - CanonHits/RawStates: live worker counters on complete runs (the same
//     emission multiset as the barrier run, counted per emission); a
//     recount over the expanded set on truncated runs (see recountCanon).
func (e *explorer[S]) finishFree(st *Stats, lv *levelInfo, rawInits []S, initCanon uint64, nInits int) {
	for _, w := range e.workers {
		st.WorkerSteps = append(st.WorkerSteps, w.steps.Load())
		sw := w.sw
		st.Steals += sw.steals.Load()
		st.HandoffBatches += sw.handoffBatches.Load()
		st.HandoffStates += sw.handoffStates.Load()
	}
	k := len(lv.sizes)
	st.Depth = k
	var exp, edgeTotal uint64
	for _, n := range lv.sizes {
		if n > st.PeakFrontier {
			st.PeakFrontier = n
		}
		exp += uint64(n)
	}
	for _, n := range lv.edges {
		edgeTotal += n
	}
	st.Expansions = exp
	st.DedupHits = edgeTotal - uint64(lv.cum[k-1]-nInits)
	if e.canon != nil {
		st.CanonEnabled = true
		if !lv.truncated {
			for _, w := range e.workers {
				st.CanonHits += w.canonHits
			}
			rawAll := e.workers[0].rawSeen
			for _, w := range e.workers[1:] {
				for h := range w.rawSeen {
					rawAll[h] = struct{}{}
				}
			}
			st.RawStates = len(rawAll)
		} else {
			st.RawStates, st.CanonHits = e.recountCanon(rawInits, lv.pids)
		}
	}
	if e.tel == nil {
		return
	}
	// Synthesize the barrier scheduler's per-level event stream from the
	// levelization: field for field what publishLevel would have emitted at
	// each barrier, so trace digests are scheduler-invariant.
	var expSoFar, edgesSoFar, cdSoFar uint64
	peak := 0
	for j := 1; j <= k; j++ {
		sz := lv.sizes[j-1]
		if sz > peak {
			peak = sz
		}
		expSoFar += uint64(sz)
		edgesSoFar += lv.edges[j-1]
		cdSoFar += lv.cdelta[j-1]
		states := lv.cum[j-1]
		dedup := edgesSoFar - uint64(states-nInits)
		var canonHits uint64
		if e.canon != nil {
			canonHits = initCanon + cdSoFar
		}
		frontier := 0
		if j < k {
			frontier = lv.sizes[j]
		} else if lv.truncated {
			prev := nInits
			if j >= 2 {
				prev = lv.cum[j-2]
			}
			frontier = states - prev
		}
		e.tel.synthLevel(obs.KindLevel, states, j, frontier, peak, expSoFar, dedup, canonHits, false)
		if j == k && lv.truncated {
			e.tel.synthLevel(obs.KindTruncated, states, j, 0, peak, expSoFar, dedup, canonHits, true)
		}
	}
}

// takeVerifyErr reads the sticky verify error under its lock.
func (e *explorer[S]) takeVerifyErr() error {
	e.verifyMu.Lock()
	defer e.verifyMu.Unlock()
	return e.verifyErr
}

// epochPool is the steal scheduler's epoch submode: the level loop's
// fan-out runs on persistent workers fed per-level jobs instead of
// per-level goroutine forks. Used when ample-set POR or the spill store
// needs level-coherent epochs; work distribution within a level is the
// same atomic-cursor chunk claiming the barrier scheduler uses (frontier
// ids are contiguous, so the cursor IS the shared queue).
func (e *explorer[S]) epochPool(nw int, expandLevel func(int32, *atomic.Int64, int, int)) (dispatch func(*atomic.Int64, int, int), shutdown func()) {
	type job struct {
		cursor    *atomic.Int64
		hi, chunk int
	}
	jobs := make([]chan job, nw)
	var wg sync.WaitGroup
	for w := 1; w < nw; w++ {
		jobs[w] = make(chan job)
		go func(w int32, ch chan job) {
			// The wait for the next level's job is this worker's barrier
			// time (the pool analogue of the fork/join gap).
			prof := e.workers[w].prof
			for {
				var t time.Time
				if prof != nil {
					t = time.Now()
				}
				j, ok := <-ch
				if prof != nil {
					prof.counters[phBarrier].Add(int64(time.Since(t)))
				}
				if !ok {
					return
				}
				expandLevel(w, j.cursor, j.hi, j.chunk)
				wg.Done()
			}
		}(int32(w), jobs[w])
	}
	dispatch = func(cursor *atomic.Int64, hi, chunk int) {
		wg.Add(nw - 1)
		for w := 1; w < nw; w++ {
			jobs[w] <- job{cursor, hi, chunk}
		}
		expandLevel(0, cursor, hi, chunk)
		waitBarrier(e.workers[0].prof, &wg)
	}
	shutdown = func() {
		for w := 1; w < nw; w++ {
			close(jobs[w])
		}
	}
	return dispatch, shutdown
}

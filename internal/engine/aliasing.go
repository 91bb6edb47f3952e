package engine

import (
	"errors"
	"fmt"
)

// ErrAliasUnsound is wrapped by the error Explore returns when the
// VerifyAliasing falsifier catches an expansion whose emissions change on
// re-expansion with poisoned scratch — a system illegally retaining
// emitted slices or scratch-buffer contents across expansions, or one
// that is not a pure function of its state.
var ErrAliasUnsound = errors.New("engine: expansion failed buffer-aliasing check")

// poisonByte overwrites reused scratch between the recorded expansion and
// the verification re-expansion: stale views read garbage instead of
// accidentally-still-valid data, turning latent aliasing bugs into loud,
// deterministic divergences.
const poisonByte = 0xDB

// poisonScratch fills the worker's reusable buffers with poisonByte. Only
// the engine-owned buffers can be poisoned here; the system's private
// scratch (Ctx.Sys) is instead exercised by the re-expansion itself, which
// must reproduce the original emissions while reusing it.
func poisonScratch[S comparable](ws *worker[S]) {
	for i := range ws.ctx.Scratch {
		ws.ctx.Scratch[i] = poisonByte
	}
	for i := range ws.canonBuf {
		ws.canonBuf[i] = poisonByte
	}
}

// checkAliasing re-expands s after poisoning the reusable scratch buffers
// and compares the emitted (successor, label, actor) sequence against the
// transitions just recorded in the worker's record at sp. Successors are
// resolved by Probe — the recorded pass interned every one of them, so a
// missing probe (to=-1) is itself a divergence. Runs on the worker's own
// Ctx so the system's retained scratch (Ctx.Sys) is reused, exactly as it
// will be on the next real expansion.
func (e *explorer[S]) checkAliasing(s S, ws *worker[S], sp span) {
	poisonScratch(ws)
	got := ws.aliasBuf[:0]
	x := &ws.ctx
	x.sink = func(to S, label string, actor int) {
		if e.canon != nil {
			to = e.canon(to)
		}
		tid, ok := e.store.Probe(to)
		if !ok {
			tid = -1
		}
		got = append(got, rawEdge{to: tid, actor: int32(actor), label: ws.labelID(label)})
	}
	e.expand(s, x)
	x.sink = nil
	ws.aliasBuf = got
	var buf []rawEdge
	want := e.chunkEdges(sp, &buf)
	if len(got) != len(want) {
		e.noteVerifyErr(fmt.Errorf("%w: state %v emitted %d transitions on poisoned re-expansion, want %d (system retains emitted or scratch buffers?)",
			ErrAliasUnsound, s, len(got), len(want)))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			lt := &e.labels
			e.noteVerifyErr(fmt.Errorf("%w: state %v transition %d diverged on poisoned re-expansion: got (to=%d label=%q actor=%d), want (to=%d label=%q actor=%d)",
				ErrAliasUnsound, s, i, got[i].to, lt.text(got[i].label), got[i].actor, want[i].to, lt.text(want[i].label), want[i].actor))
			return
		}
	}
}

// checkAliasingPOR is checkAliasing for the partial-order-reduced path: it
// compares against the full collected action set (ws.acts, before ample
// selection), since the record only holds the ample subset.
func (e *explorer[S]) checkAliasingPOR(s S, ws *worker[S]) {
	poisonScratch(ws)
	got := ws.aliasActs[:0]
	x := &ws.ctx
	old := x.sink
	x.sink = func(to S, label string, actor int) {
		got = append(got, Action[S]{To: to, Label: label, Actor: actor})
	}
	e.expand(s, x)
	x.sink = old
	ws.aliasActs = got
	want := ws.acts
	if len(got) != len(want) {
		e.noteVerifyErr(fmt.Errorf("%w: state %v emitted %d transitions on poisoned re-expansion, want %d (system retains emitted or scratch buffers?)",
			ErrAliasUnsound, s, len(got), len(want)))
		return
	}
	for i := range want {
		if got[i] != want[i].act {
			e.noteVerifyErr(fmt.Errorf("%w: state %v transition %d diverged on poisoned re-expansion: got (to=%v label=%q actor=%d), want (to=%v label=%q actor=%d)",
				ErrAliasUnsound, s, i, got[i].To, got[i].Label, got[i].Actor, want[i].act.To, want[i].act.Label, want[i].act.Actor))
			return
		}
	}
}

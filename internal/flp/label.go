package flp

import (
	"fmt"

	"repro/internal/core"
)

// This file is the analysis's labelling pass: Analyze reads every
// configuration's decisions exactly once, into an id-indexed vector, and
// every check after exploration (valence, agreement, validity, the
// non-deciding lasso, the undecided deadlock) reads those integers instead
// of re-parsing the encoded configuration.

// labeller finds each process's local state in an encoded configuration by
// the same strict parse ExpandInto uses, reusing one scratch slice, so
// labelling a canonical configuration allocates nothing. Encodings the
// strict parse rejects — which encodeConfig never emits — fall back to
// decodeConfig.
type labeller struct {
	p      Protocol
	n      int
	states []string // substrings of the configuration being labelled
}

// splitStates finds the local states of c, or reports false when c is not
// in encodeConfig's canonical form (non-canonical crash mask, missing
// section separator, or a state count other than n).
func (l *labeller) splitStates(c config) ([]string, bool) {
	_, states, _, ok := splitSections(c)
	if !ok {
		return nil, false
	}
	l.states = splitByte(l.states[:0], states, '\x1e')
	return l.states, len(l.states) == l.n
}

// decision reports the first decision among c's processes, in process
// order, and whether two processes decided differently.
func (l *labeller) decision(c config) (v int, decided, disagree bool) {
	states, ok := l.splitStates(c)
	if !ok {
		_, states, _ = decodeConfig(c)
	}
	for q := 0; q < l.n; q++ {
		d, ok := l.p.Decide(q, states[q])
		switch {
		case !ok:
		case !decided:
			v, decided = d, true
		case d != v:
			disagree = true
		}
	}
	return v, decided, disagree
}

// labelDecisions labels every configuration of g: dec[i] is the first
// decided value of configuration i, or -1 if no process there has decided,
// and conflict is the lowest id whose processes disagree (-1 if none).
func labelDecisions(p Protocol, g *core.Graph[config]) (dec []int8, conflict int, err error) {
	l := labeller{p: p, n: p.NumProcs()}
	dec = make([]int8, g.Len())
	conflict = -1
	for i := range dec {
		v, decided, disagree := l.decision(g.State(i))
		dec[i] = -1
		if decided {
			if v < 0 || v >= core.MaxDecisionValues {
				return nil, 0, fmt.Errorf("decision value %d out of range [0,%d)", v, core.MaxDecisionValues)
			}
			dec[i] = int8(v)
		}
		if disagree && conflict < 0 {
			conflict = i
		}
	}
	return dec, conflict, nil
}

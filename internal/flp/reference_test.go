package flp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
)

// analyzeReference is the decode-based analysis Analyze replaced, kept as
// the oracle for the labelled one: every predicate re-parses the encoded
// configuration with decodeConfig, agreement is a CheckInvariant pass, and
// validity re-explores each uniform input vector as a system of its own.
func analyzeReference(p Protocol, opts AnalyzeOptions) (Report, error) {
	n := p.NumProcs()
	vectors := opts.InputVectors
	if len(vectors) == 0 {
		vectors = allBinaryVectors(n)
	}
	resilience := 1
	if opts.Resilience != nil {
		resilience = *opts.Resilience
	}
	eopts := core.ExploreOptions{
		MaxStates: opts.MaxStates, Parallelism: opts.Parallelism, Store: opts.Store,
		VerifyAliasing: opts.VerifyAliasing,
	}
	if opts.Canon != nil {
		eopts.Canon = opts.Canon
		eopts.VerifyCanon = opts.VerifyCanon
		eopts.CanonBytes = opts.CanonBytes
	}
	if opts.Independent != nil {
		eopts.Independent = opts.Independent
		eopts.Visible = opts.Visible
		eopts.VerifyPOR = opts.VerifyPOR
	}
	g, err := core.Explore[config](&system{p: p, inputVectors: vectors, resilience: resilience}, eopts)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Protocol: p.Name(), States: g.Len(), Edges: g.NumEdges(), Lossy: opts.Store.Lossy()}

	decideConfig := func(c config) (int, bool) {
		_, states, _ := decodeConfig(c)
		for q := 0; q < n; q++ {
			if v, ok := p.Decide(q, states[q]); ok {
				return v, true
			}
		}
		return 0, false
	}
	val, err := g.Valence(func(i int) (int, bool) { return decideConfig(g.State(i)) })
	if err != nil {
		return rep, err
	}
	_, rep.HasBivalentInitial = g.BivalentInitial(val)
	for i := 0; i < g.Len(); i++ {
		if val.IsBivalent(i) {
			rep.BivalentConfigs++
		}
	}
	_, rep.DeciderFound = g.Decider(val)

	if _, tr, ok := g.CheckInvariant(func(c config) bool {
		_, states, _ := decodeConfig(c)
		seen := -1
		for q := 0; q < n; q++ {
			if v, ok := p.Decide(q, states[q]); ok {
				if seen >= 0 && v != seen {
					return false
				}
				seen = v
			}
		}
		return true
	}); !ok {
		rep.AgreementViolated = true
		rep.AgreementWitness = tr
	}

	for _, v := range []int{0, 1} {
		uniform := make([]int, n)
		for i := range uniform {
			uniform[i] = v
		}
		gu, err := core.Explore[config](&system{p: p, inputVectors: [][]int{uniform}, resilience: resilience}, eopts)
		if err != nil {
			return rep, err
		}
		if _, _, ok := gu.CheckInvariant(func(c config) bool {
			d, decided := decideConfig(c)
			return !decided || d == v
		}); !ok {
			rep.ValidityViolated = true
		}
	}

	undecided := func(i int) bool {
		_, decided := decideConfig(g.State(i))
		return !decided
	}
	if lasso, ok := g.FairLassoWithin(undecided, core.WeakFairness, n); ok {
		rep.NondecidingLasso = &lasso
	}
	for _, i := range g.Terminals() {
		if undecided(i) {
			rep.HasDeadlock = true
			rep.UndecidedDeadlock = g.PathTo(i)
			break
		}
	}
	rep.Lively = !rep.AgreementViolated && !rep.ValidityViolated &&
		rep.NondecidingLasso == nil && !rep.HasDeadlock
	return rep, nil
}

// verdicts is the tuple partial-order reduction preserves: the reduced
// graph keeps the boolean verdicts but not the per-interleaving structure
// the witnesses and counts describe.
type verdicts struct {
	bivalentInitial, agreement, validity, deadlock, lasso, lively bool
}

func verdictsOf(r Report) verdicts {
	return verdicts{
		bivalentInitial: r.HasBivalentInitial,
		agreement:       r.AgreementViolated,
		validity:        r.ValidityViolated,
		deadlock:        r.HasDeadlock,
		lasso:           r.NondecidingLasso != nil,
		lively:          r.Lively,
	}
}

// withMode installs the exploration mode under test: "full", "canon"
// (PermutationCanon, checked on every configuration) or "por"
// (DeliveryIndependence with DecisionVisibility, checked on every
// configuration). It reports false when p does not support the mode.
func withMode(p Protocol, mode string, opts AnalyzeOptions) (AnalyzeOptions, bool) {
	switch mode {
	case "canon":
		canon, err := PermutationCanon(p)
		if err != nil {
			return opts, false
		}
		opts.Canon, opts.VerifyCanon = canon, 1
	case "por":
		opts.Independent = DeliveryIndependence(p)
		opts.Visible = DecisionVisibility(p)
		opts.VerifyPOR = 1
	}
	return opts, true
}

// TestAnalyzeMatchesReference pins the labelled analysis to the
// decode-based one: the whole Report — counts, witnesses, lasso and
// deadlock traces included — is identical on the full graph and on the
// process-permutation quotient, and the verdict tuple is identical under
// partial-order reduction. adopt-swap is not process-symmetric (its ring
// successor is positional), so it has no quotient case.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, mk := range []func(int) Protocol{NewWaitAll, NewWaitQuorum, NewAdoptSwap} {
		for _, n := range []int{2, 3} {
			for _, res := range []int{0, 1} {
				for _, mode := range []string{"full", "canon", "por"} {
					for _, par := range []int{1, 2} {
						p := mk(n)
						res := res
						opts, ok := withMode(p, mode, AnalyzeOptions{Resilience: &res, Parallelism: par})
						if !ok {
							continue
						}
						desc := fmt.Sprintf("proto=%s,n=%d,r=%d,mode=%s,par=%d", p.Name(), n, res, mode, par)
						t.Run(desc, func(t *testing.T) {
							got, err := Analyze(p, opts)
							if err != nil {
								t.Fatalf("Analyze: %v", err)
							}
							want, err := analyzeReference(p, opts)
							if err != nil {
								t.Fatalf("analyzeReference: %v", err)
							}
							if mode == "por" {
								if verdictsOf(got) != verdictsOf(want) {
									t.Fatalf("verdicts differ:\ngot  %+v\nwant %+v", verdictsOf(got), verdictsOf(want))
								}
								return
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("reports differ:\ngot  %+v\nwant %+v", got, want)
							}
						})
					}
				}
			}
		}
	}
}

// zeroOnMismatch decides on its first delivery: 0 if the sender's input
// differs from its own, and otherwise its own input — or, when alwaysZero
// is set, 0 regardless. Deciding 0 on mixed inputs is valid; deciding 0
// from all-ones is not. Local states carry no process ids, so every
// process relabeling is a symmetry.
type zeroOnMismatch struct {
	n          int
	alwaysZero bool
}

func (z zeroOnMismatch) Name() string {
	if z.alwaysZero {
		return "always-zero"
	}
	return "zero-on-mismatch"
}
func (z zeroOnMismatch) NumProcs() int                           { return z.n }
func (z zeroOnMismatch) Init(_, input int) string                { return fmt.Sprintf("%d-", input) }
func (z zeroOnMismatch) PermuteState(s string, _ []int) string   { return s }
func (z zeroOnMismatch) PermutePayload(s string, _ []int) string { return s }
func (z zeroOnMismatch) InitialSends(p int, state string) []Send {
	var out []Send
	for q := 0; q < z.n; q++ {
		if q != p {
			out = append(out, Send{To: q, Payload: state[:1]})
		}
	}
	return out
}
func (z zeroOnMismatch) Step(_ int, state string, _ int, payload string) (string, []Send) {
	if state[1] != '-' {
		return state, nil
	}
	if payload != state[:1] || z.alwaysZero {
		return state[:1] + "0", nil
	}
	return state[:1] + payload, nil
}
func (z zeroOnMismatch) Decide(_ int, state string) (int, bool) {
	if state[1] == '-' {
		return 0, false
	}
	return int(state[1] - '0'), true
}

// TestValidityByReachability checks validity against reachability from
// the uniform initial configurations inside the main graph: deciding 0
// from all-ones is caught, and the decided-0 configurations that only
// mixed inputs reach are not charged to the all-ones initial — under the
// full graph, the quotient and partial-order reduction alike.
func TestValidityByReachability(t *testing.T) {
	for _, alwaysZero := range []bool{true, false} {
		for _, res := range []int{0, 1} {
			for _, mode := range []string{"full", "canon", "por"} {
				p := zeroOnMismatch{n: 3, alwaysZero: alwaysZero}
				res := res
				opts, ok := withMode(p, mode, AnalyzeOptions{Resilience: &res})
				if !ok {
					t.Fatalf("%s does not support mode %s", p.Name(), mode)
				}
				t.Run(fmt.Sprintf("proto=%s,r=%d,mode=%s", p.Name(), res, mode), func(t *testing.T) {
					rep, err := Analyze(p, opts)
					if err != nil {
						t.Fatalf("Analyze: %v", err)
					}
					if rep.ValidityViolated != alwaysZero {
						t.Fatalf("ValidityViolated = %v, want %v", rep.ValidityViolated, alwaysZero)
					}
					want, err := analyzeReference(p, opts)
					if err != nil {
						t.Fatalf("analyzeReference: %v", err)
					}
					if verdictsOf(rep) != verdictsOf(want) {
						t.Fatalf("verdicts differ from the reference:\ngot  %+v\nwant %+v", verdictsOf(rep), verdictsOf(want))
					}
				})
			}
		}
	}
}

// TestValidityIgnoresUnexploredUniformVector: a uniform vector left out of
// InputVectors adds no validity obligation, even when the protocol would
// violate validity from it.
func TestValidityIgnoresUnexploredUniformVector(t *testing.T) {
	p := zeroOnMismatch{n: 2, alwaysZero: true}
	rep, err := Analyze(p, AnalyzeOptions{InputVectors: [][]int{{0, 0}, {0, 1}, {1, 0}}})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if rep.ValidityViolated {
		t.Fatal("validity charged to the all-ones vector, which was not explored")
	}
	rep, err = Analyze(p, AnalyzeOptions{InputVectors: [][]int{{0, 1}, {1, 1}}})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if !rep.ValidityViolated {
		t.Fatal("deciding 0 from the explored all-ones vector must violate validity")
	}
}

// TestLabellerFallsBackOnNonCanonicalEncodings feeds the labeller
// encodings its strict parse rejects and checks they take the decodeConfig
// fallback and label exactly as decodeConfig reads them.
func TestLabellerFallsBackOnNonCanonicalEncodings(t *testing.T) {
	p := NewWaitQuorum(3)
	l := labeller{p: p, n: 3}
	decided := "1-1:1" // p0 heard itself and p2, and decided 1
	states := []string{decided, "-1-:-", "0-1:0"}
	canonical := encodeConfig(0, states, []envelope{{from: 1, to: 0, payload: "1"}})
	if _, ok := l.splitStates(canonical); !ok {
		t.Fatalf("strict parse rejected encodeConfig output %q", canonical)
	}
	if allocs := testing.AllocsPerRun(100, func() { l.decision(canonical) }); allocs != 0 {
		t.Fatalf("labelling a canonical configuration allocates %.0f times", allocs)
	}
	wantV, wantDecided, wantDisagree := l.decision(canonical)
	if !wantDecided || wantV != 1 || !wantDisagree {
		t.Fatalf("decision(%q) = %d,%v,%v; want 1,true,true", canonical, wantV, wantDecided, wantDisagree)
	}
	for _, c := range []config{
		"00" + canonical[1:], // crash mask with a leading zero
		"0\x1d" + decided + "\x1e-1-:-\x1e0-1:0\x1e-1-:-\x1d", // four state fields for three processes
	} {
		if _, ok := l.splitStates(c); ok {
			t.Fatalf("strict parse accepted non-canonical %q", c)
		}
		_, ref, _ := decodeConfig(c)
		refV, refDecided, refDisagree := firstDecisionOf(p, ref[:3])
		v, dec, dis := l.decision(c)
		if v != refV || dec != refDecided || dis != refDisagree {
			t.Fatalf("decision(%q) = %d,%v,%v; decodeConfig gives %d,%v,%v", c, v, dec, dis, refV, refDecided, refDisagree)
		}
	}
}

// firstDecisionOf is the labeller's decision rule over decoded states.
func firstDecisionOf(p Protocol, states []string) (v int, decided, disagree bool) {
	for q, st := range states {
		if d, ok := p.Decide(q, st); ok {
			if !decided {
				v, decided = d, true
			} else if d != v {
				disagree = true
			}
		}
	}
	return v, decided, disagree
}

// outOfRange decides a value the valence bitmask cannot hold.
type outOfRange struct{ constProto }

func (outOfRange) Decide(int, string) (int, bool) { return core.MaxDecisionValues, true }

func TestAnalyzeRejectsOutOfRangeDecision(t *testing.T) {
	if _, err := Analyze(outOfRange{constProto{n: 2}}, AnalyzeOptions{Resilience: intPtr(0)}); err == nil {
		t.Fatal("a decision value of MaxDecisionValues must fail the analysis")
	}
}

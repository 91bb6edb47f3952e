package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNested(t *testing.T) {
	r := newRecorder()
	root := r.add("iteration", -1, 0, 0, 100)
	a := r.add("a", root, 0, 10, 40)
	r.add("a.child", a, 0, 15, 25)
	r.add("b", root, 0, 50, 90)
	// Overlapping children of b count once: [55,70) and [60,80) cover 25.
	b := 3
	r.add("b.x", b, 0, 55, 70)
	r.add("b.y", b, 0, 60, 80)

	for _, tc := range []struct {
		id   int
		want time.Duration
	}{
		{root, 100 - 30 - 40},
		{a, 30 - 10},
		{a + 1, 10},
		{b, 40 - 25},
	} {
		if got := r.selfTime(tc.id); got != tc.want {
			t.Errorf("selfTime(%s) = %d, want %d", r.spans[tc.id].Name, got, tc.want)
		}
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	r := newRecorder()
	p := r.add("flp.Analyze", -1, 0, 100, 200)
	// The main-exploration span is synthesized from Stats and may reach
	// past its parent; only the covered part counts.
	r.add("engine.explore", p, 0, 100, 250)
	if got := r.selfTime(p); got != 0 {
		t.Fatalf("selfTime = %d, want 0", got)
	}
	r2 := newRecorder()
	p2 := r2.add("p", -1, 0, 100, 200)
	r2.add("before", p2, 0, 0, 50)
	if got := r2.selfTime(p2); got != 100 {
		t.Fatalf("selfTime with a disjoint child = %d, want 100", got)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		r := newRecorder()
		s := rng.Int63n(1000)
		p := r.add("p", -1, trial, s, s+rng.Int63n(1000))
		for k := rng.Intn(6); k > 0; k-- {
			cs := rng.Int63n(2500) - 500
			r.add("c", p, trial, cs, cs+rng.Int63n(1500))
		}
		if got, d := r.selfTime(p), r.spans[p].dur(); got < 0 || int64(got) > d {
			t.Fatalf("trial %d: selfTime %d outside [0, %d]: %+v", trial, got, d, r.spans)
		}
	}
}

func TestAnalysisResidualNeverNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		self := time.Duration(rng.Int63n(int64(2 * time.Second)))
		validity := time.Duration(rng.Int63n(int64(3 * time.Second)))
		got := analysisResidual(self, validity)
		if got < 0 {
			t.Fatalf("analysisResidual(%v, %v) = %v", self, validity, got)
		}
		if validity <= self && got != self-validity {
			t.Fatalf("analysisResidual(%v, %v) = %v, want %v", self, validity, got, self-validity)
		}
	}
}

func TestRecorderWritesEverySpan(t *testing.T) {
	r := newRecorder()
	root := r.begin("iteration", -1, 7)
	child := r.begin("core.Explore", root, 7)
	r.end(child)
	r.end(root)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var got []span
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != root || got[1].Iter != 7 || got[1].Name != "core.Explore" {
		t.Fatalf("spans read back = %+v", got)
	}
	for _, s := range got {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
}

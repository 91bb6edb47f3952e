package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunLiveRefinedSweep drives `hundred run` end to end: a clean LCR
// sweep must refine on every seed (exit 0) and write a trace that
// trace-lint accepts.
func TestRunLiveRefinedSweep(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "rt.jsonl")
	code := runLive([]string{"-workload", "lcr", "-runs", "4", "-delay", "2", "-trace", trace})
	if code != 0 {
		t.Fatalf("clean lcr sweep exited %d, want 0", code)
	}
	if code := runTraceLint([]string{trace}); code != 0 {
		t.Fatalf("trace-lint rejected the run trace (exit %d)", code)
	}
	if st, err := os.Stat(trace); err != nil || st.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
}

// TestRunLiveBuggyFails: the deliberately broken variants must make the
// subcommand exit 1 — this is the CI contract for the oracle.
func TestRunLiveBuggyFails(t *testing.T) {
	if code := runLive([]string{"-workload", "lcr", "-buggy", "-runs", "2", "-delay", "2"}); code != 1 {
		t.Fatalf("buggy lcr exited %d, want 1", code)
	}
	if code := runLive([]string{"-workload", "abp", "-buggy", "-drop", "0.4", "-delay", "2", "-runs", "8"}); code != 1 {
		t.Fatalf("no-retransmit abp exited %d, want 1", code)
	}
}

func TestRunLiveUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "bogus"},
		{"-workload", "benor", "-buggy"},
		{"-workload", "mutex", "-buggy"},
		{"-workload", "mutex", "-alg", "bogus"},
		{"-workload", "lcr", "-drop", "0.5"}, // lcr does not support drop
	} {
		if code := runLive(args); code != 2 {
			t.Errorf("runLive(%v) exited %d, want 2", args, code)
		}
	}
}

// TestRunLiveNoModelScale: big configurations run live-only and succeed.
func TestRunLiveNoModelScale(t *testing.T) {
	if code := runLive([]string{"-workload", "lcr", "-procs", "64", "-max-events", "65536"}); code != 0 {
		t.Fatalf("live-only lcr at n=64 exited %d, want 0", code)
	}
}

// TestRunExperimentsRejectsUnknownID: an id that names no experiment is a
// usage error (exit 2) caught before anything runs, so a typo can never
// pass as a clean run; known ids match case-insensitively.
func TestRunExperimentsRejectsUnknownID(t *testing.T) {
	if code := runExperiments(experiments(), []string{"E99"}); code != 2 {
		t.Fatalf("hundred E99 exited %d, want 2", code)
	}
	ran := 0
	exps := []experiment{{"E01", "stub", func() error { ran++; return nil }}}
	if code := runExperiments(exps, []string{"E01", "E99"}); code != 2 || ran != 0 {
		t.Fatalf("E01 E99: exit %d after %d runs, want exit 2 before any run", code, ran)
	}
	if code := runExperiments(exps, []string{"e01"}); code != 0 || ran != 1 {
		t.Fatalf("e01: exit %d after %d runs, want exit 0 after one run", code, ran)
	}
}

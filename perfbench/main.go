// Command perfbench is the repository's benchmark: time to a checked
// verdict on three workloads, each chosen to load a different layer of the
// exploration stack. See README.md for the metrics and workloads, and
// run.sh for how to build and run it.
//
// It is a closed loop with one client: one verdict is computed at a time
// and the next starts when the last finishes. Every verdict is checked
// against the workload's known answer. With -trace 0 the loop attaches no
// Stats and no Sink and reports the end-to-end metrics; with -trace 1 it
// alternates untraced and traced iterations and reports the per-layer
// metrics, with the tracing overhead measured between the two.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: flp-wq4r1, flp-wq4r1-spill or chain-deep")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed builds the same inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed loop in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	root := fs.String("root", ".", "root of the checkout under test")
	out := fs.String("out", ".bench_build/perfbench", "directory for spill segments, spans and the result record")
	commit := fs.String("commit", "unknown", "commit id of the code under test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (flp-wq4r1, flp-wq4r1-spill, chain-deep), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg := runConfig{
		workload: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, scratch: *out,
	}
	rep, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fp := takeFingerprint(*root, *commit)
	base := fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)
	if cfg.traced {
		if err := rep.rec.write(filepath.Join(*out, "spans-"+base+".jsonl")); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	res := rep.result()
	record := map[string]any{
		"workload": w.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"fingerprint": fp, "result": res, "failed_ratio": rep.failedRatio(),
		"samples": rep.samples(),
	}
	if err := writeJSON(filepath.Join(*out, "result-"+base+".json"), record); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout, fp, *seed)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type runConfig struct {
	workload workload
	seed     uint64
	budget   time.Duration
	traced   bool
	scratch  string // directory for files the workload writes
}

// report is everything one run measured.
type report struct {
	workload          string
	traced            bool
	attempted, failed int
	setup             []float64 // seconds per set-up
	wall, cpu, alloc  []float64 // per untraced iteration
	tracedWall        []float64 // the traced verdict call, per traced iteration
	layers            []layers
	peakRSS           int64
	rec               *recorder
}

// Set-up runs in rounds until at least setupMin rounds are done and
// setupBudget has passed, or setupMax rounds are done. A round builds a
// batch of instances back to back, sized to take about setupBatch, and
// times them together: a set-up of a few microseconds would otherwise be
// lost in clock and cache noise. Tearing a batch down is not timed.
const (
	setupMin    = 5
	setupMax    = 100
	setupBudget = 200 * time.Millisecond
	setupBatch  = 2 * time.Millisecond
)

// execute sets the workload up, keeping the last instance, and then runs
// the timed loop on it.
func execute(cfg runConfig, logw io.Writer) (*report, error) {
	r := &report{workload: cfg.workload.name, traced: cfg.traced, rec: newRecorder()}
	inst, setup, err := setUp(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	r.setup = setup
	r.loop(inst, cfg.budget, logw)
	r.peakRSS = peakRSS()
	if err := inst.close(); err != nil {
		return nil, err
	}
	return r, nil
}

// setUp returns the last instance built and the seconds per set-up of
// each round.
func setUp(cfg runConfig) (instance, []float64, error) {
	var keep instance
	var times []float64
	batch := 1
	for start := time.Now(); len(times) < setupMin || (len(times) < setupMax && time.Since(start) < setupBudget); {
		insts, per, err := setUpBatch(cfg, batch)
		if keep != nil {
			insts = append(insts, keep) // the previous round's, closed below
		}
		if err != nil {
			return nil, nil, errors.Join(err, closeAll(insts))
		}
		times = append(times, per.Seconds())
		batch = int(min(max(setupBatch/max(per, 1), 1), 64))
		keep = insts[0]
		if err := closeAll(insts[1:]); err != nil {
			return nil, nil, errors.Join(err, keep.close())
		}
	}
	return keep, times, nil
}

// setUpBatch builds n instances back to back and returns the time per
// instance.
func setUpBatch(cfg runConfig, n int) ([]instance, time.Duration, error) {
	insts := make([]instance, 0, n)
	t0 := time.Now()
	for len(insts) < n {
		in, err := cfg.workload.setup(cfg.seed, cfg.scratch)
		if err != nil {
			return insts, 0, err
		}
		insts = append(insts, in)
	}
	return insts, time.Since(t0) / time.Duration(n), nil
}

func closeAll(insts []instance) error {
	var errs []error
	for _, in := range insts {
		errs = append(errs, in.close())
	}
	return errors.Join(errs...)
}

// loop runs iterations until the next one would overrun budget; at least
// one always runs. A traced run follows every untraced iteration with a
// traced one.
func (r *report) loop(inst instance, budget time.Duration, logw io.Writer) {
	want := inst.want()
	check := func(got answer, err error) {
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			fmt.Fprintf(logw, "perfbench: %s: iteration %d: %v\n", r.workload, r.attempted, err)
		case got != want:
			r.failed++
			fmt.Fprintf(logw, "perfbench: %s: iteration %d: verdict %+v, known answer %+v\n", r.workload, r.attempted, got, want)
		}
	}
	start := time.Now()
	for iter := 0; ; iter++ {
		cycle := time.Now()
		runtime.GC()
		before := readUsage()
		t0 := time.Now()
		got, err := inst.verdict()
		wall := time.Since(t0)
		after := readUsage()
		check(got, err)
		r.wall = append(r.wall, wall.Seconds())
		r.cpu = append(r.cpu, (after.cpu - before.cpu).Seconds())
		r.alloc = append(r.alloc, float64(after.alloc-before.alloc))

		if r.traced {
			runtime.GC()
			root := r.rec.begin("iteration", -1, iter)
			got, l, err := inst.traced(r.rec, root, iter)
			r.rec.end(root)
			check(got, err)
			if err == nil {
				// Each traced call opens its verdict span first.
				r.tracedWall = append(r.tracedWall, float64(r.rec.spans[root+1].dur())/1e9)
				r.layers = append(r.layers, l)
			}
		}
		if time.Since(start)+time.Since(cycle) > budget {
			return
		}
	}
}

func (r *report) failedRatio() float64 { return float64(r.failed) / float64(r.attempted) }

// result is the closing JSON line: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *report) result() result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if !r.traced {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metric{r.e2e(m.name), m.unit}
		}
		return res
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{r.layer(m.name), m.unit}
	}
	return res
}

func (r *report) e2e(name string) float64 {
	switch name {
	case "verdict_s":
		return median(r.wall)
	case "cpu_s":
		return median(r.cpu)
	case "alloc_bytes":
		return median(r.alloc)
	case "peak_rss_bytes":
		return float64(r.peakRSS)
	case "setup_s":
		return median(r.setup)
	}
	panic("perfbench: no end-to-end metric " + name)
}

// layer is the median of a per-layer metric over the traced iterations.
// The tracing overhead compares the traced verdict call with the untraced
// iterations of the same run.
func (r *report) layer(name string) float64 {
	switch name {
	case "trace.overhead_s":
		return median(r.tracedWall) - median(r.wall)
	case "trace.overhead_frac":
		return (median(r.tracedWall) - median(r.wall)) / median(r.wall)
	}
	xs := make([]float64, 0, len(r.layers))
	for _, l := range r.layers {
		xs = append(xs, l[name])
	}
	return median(xs)
}

func (r *report) samples() map[string][]float64 {
	s := map[string][]float64{"setup_s": r.setup, "verdict_s": r.wall, "cpu_s": r.cpu, "alloc_bytes": r.alloc}
	if r.traced {
		s["traced_verdict_s"] = r.tracedWall
	}
	return s
}

// print writes the human-readable summary: the fingerprint and seed, then
// every metric by name with its unit and sample count.
func (r *report) print(w io.Writer, fp fingerprint, seed uint64) {
	fpj, _ := json.Marshal(fp)
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%t closed-loop clients=1 parallelism=%d\n", r.workload, seed, r.traced, parallelism)
	fmt.Fprintf(w, "fingerprint %s\n", fpj)
	fmt.Fprintf(w, "failed_ratio %.4f (%d of %d verdicts)\n", r.failedRatio(), r.failed, r.attempted)
	samples := r.samples()
	for _, m := range e2eMetrics {
		note := "one reading per process"
		if xs, ok := samples[m.name]; ok {
			note = fmt.Sprintf("median of %d; %s", len(xs), tailNote(xs))
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-8s %s\n", m.name, r.e2e(m.name), m.unit, note)
	}
	if !r.traced {
		return
	}
	fmt.Fprintf(w, "per-layer, median of %d traced iterations:\n", len(r.layers))
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, r.layer(m.name), m.unit)
	}
}

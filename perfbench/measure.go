package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// usage is a reading of the process's cumulative resource counters.
type usage struct {
	cpu      time.Duration // user + system
	alloc    uint64        // heap bytes allocated (MemStats.TotalAlloc)
	gcCycles uint32
	gcCPU    float64 // estimated GC CPU seconds (runtime/metrics)
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	u := usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
	}
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return u
}

// peakRSS is the process's peak resident set in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// median of xs; xs is not modified. Zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailNote names the highest percentile that has at least ten samples
// beyond it, or says that n samples support none.
func tailNote(xs []float64) string {
	n := len(xs)
	if n < 11 {
		return fmt.Sprintf("no tail percentile: %d samples, a tail needs at least 11", n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("p%.1f=%.6g", 100*float64(n-10)/float64(n), s[n-11])
}

// fingerprint identifies the hardware and settings a result was measured
// on. Results whose ID differs must not be compared.
type fingerprint struct {
	ID          string `json:"id"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOGC        string `json:"gogc"`
	GOMEMLIMIT  string `json:"gomemlimit"`
	CPUModel    string `json:"cpu_model"`
	OSArch      string `json:"os_arch"`
	Parallelism int    `json:"parallelism"`
	// Commit and Source identify the code under test, not the machine, and
	// are left out of ID.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

func takeFingerprint(root, commit string) fingerprint {
	env := func(k, def string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return def
	}
	fp := fingerprint{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOGC:        env("GOGC", "100"),
		GOMEMLIMIT:  env("GOMEMLIMIT", "off"),
		CPUModel:    cpuModel(),
		OSArch:      runtime.GOOS + "/" + runtime.GOARCH,
		Parallelism: parallelism,
		Commit:      commit,
		Source:      sourceHash(root),
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%d|%s|%s|%s|%s|%s|%d",
		fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GOGC, fp.GOMEMLIMIT, fp.CPUModel, fp.OSArch, fp.Parallelism)))
	fp.ID = hex.EncodeToString(h[:6])
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests every go.mod and .go file under root, so a result
// names the code it measured even where no commit id is at hand.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// metric is one named, unit-bearing value of a result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the closing line of a run, in the form BENCHMARK.json's
// command contract prescribes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

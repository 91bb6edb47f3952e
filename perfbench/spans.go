package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call, recorded from this package around a call into a
// layer of the library. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Iter   int    `json:"iter"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; write saves them when the run ends. It is
// used from one goroutine only: the benchmark is a closed loop.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) begin(name string, parent, iter int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: r.now(), End: -1})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = r.now()
	return time.Duration(r.spans[id].dur())
}

// add records an already-measured span, such as a phase whose interval
// the library reports through its Stats rather than through a call of its
// own.
func (r *recorder) add(name string, parent, iter int, start, end int64) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Iter: iter, Name: name, Start: start, End: end})
	return id
}

// selfTime is the span's duration minus the part of its interval that its
// child spans cover. Overlapping children count once and children are
// clipped to the parent, so the result lies in [0, duration].
func (r *recorder) selfTime(id int) time.Duration {
	p := r.spans[id]
	var kids [][2]int64
	for _, s := range r.spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if lo < hi {
			kids = append(kids, [2]int64{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := int64(0), p.Start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return time.Duration(p.dur() - covered)
}

// write saves every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

package engine

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/store"
)

// exploreSequential is the engine-side executable specification of the
// canonical order: a plain single-threaded BFS over the system's emissions
// (collected through CollectCtx), with no workers, no successor record and
// no replay. Every worker count and store must reproduce its Result.
func exploreSequential[S comparable](inits []S, expand ExpandFunc[S]) *Result[S] {
	res := &Result[S]{}
	index := make(map[S]int32)
	labelIDs := make(map[string]int32)
	intern := func(s S) (int32, bool) {
		if id, ok := index[s]; ok {
			return id, false
		}
		id := int32(len(res.States))
		index[s] = id
		res.States = append(res.States, s)
		res.Edges = append(res.Edges, nil)
		res.Parents = append(res.Parents, -1)
		res.ParentEdges = append(res.ParentEdges, Edge{})
		return id, true
	}
	var queue []int32
	for _, s := range inits {
		if id, fresh := intern(s); fresh {
			res.Inits = append(res.Inits, int(id))
			queue = append(queue, id)
		}
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		out := []Edge{} // expanded terminals carry an empty, non-nil list
		x := CollectCtx(func(to S, label string, actor int) {
			lid, ok := labelIDs[label]
			if !ok {
				lid = int32(len(res.Labels))
				labelIDs[label] = lid
				res.Labels = append(res.Labels, label)
			}
			tid, fresh := intern(to)
			ed := Edge{To: tid, Actor: int32(actor), Label: lid}
			if fresh {
				res.Parents[tid] = id
				res.ParentEdges[tid] = ed
				queue = append(queue, tid)
			}
			out = append(out, ed)
		})
		expand(res.States[id], x)
		res.Edges[id] = out
	}
	return res
}

// fanExpand is one root whose 70,000 emissions — more than a record chunk
// holds — land on 3,000 terminal states. The root's span straddles the
// first chunk boundary of whichever worker expands it, and every other
// expansion records an empty span. At two workers the second worker
// expands only terminals and so never allocates a chunk whenever it
// claims any terminals.
func fanExpand(s string, x *Ctx[string]) {
	if s != "r" {
		return
	}
	buf := x.Scratch[:0]
	for i := 0; i < 70_000; i++ {
		buf = strconv.AppendInt(append(buf[:0], 't'), int64(i%3000), 10)
		x.EmitBytes(buf, x.Label(strconv.AppendInt([]byte("f"), int64(i%7), 10)), i%3)
	}
	x.Scratch = buf
}

// wideExpand is a root with 800 children, each emitting 200 transitions
// into a pool of 20,000 terminals: the 160,000 mid-level edges spread over
// the workers, so spans straddle chunk boundaries in every worker's record.
// The per-state fan-out stays small enough for the POR arms, whose ample-set
// search is quadratic in a state's action count.
func wideExpand(s string, x *Ctx[string]) {
	buf := x.Scratch[:0]
	switch s[0] {
	case 'r':
		for k := 0; k < 800; k++ {
			buf = strconv.AppendInt(append(buf[:0], 'm'), int64(k), 10)
			x.EmitBytes(buf, "spawn", 0)
		}
	case 'm':
		k, _ := strconv.Atoi(s[1:])
		for j := 0; j < 200; j++ {
			buf = strconv.AppendInt(append(buf[:0], 't'), int64((k*200+j)*7%20_000), 10)
			x.EmitBytes(buf, x.Label(strconv.AppendInt([]byte("w"), int64(j%5), 10)), k%4)
		}
	}
	x.Scratch = buf
}

// TestChunkBoundaryDifferential runs systems whose spans straddle 65,536
// edge chunk boundaries, and one whose second worker never allocates a
// chunk, under every record path — full and POR expansion over mem and
// spill stores — at one, two and eight workers, and requires each Result,
// label table included, to equal the sequential BFS byte for byte. The
// POR arms use an all-dependent relation, so no proper ample set exists
// and the reduced graph is the full one; they skip the fan system, whose
// 70,000-action root would make the ample-set search quadratic.
func TestChunkBoundaryDifferential(t *testing.T) {
	allDependent := func(string, Action[string], Action[string]) bool { return false }
	systems := []struct {
		name   string
		expand ExpandFunc[string]
		por    []bool
	}{
		{"fan", fanExpand, []bool{false}},
		{"wide", wideExpand, []bool{false, true}},
	}
	for _, sys := range systems {
		want := exploreSequential([]string{"r"}, sys.expand)
		for _, st := range []string{"mem", "spill"} {
			for _, por := range sys.por {
				for _, nw := range []int{1, 2, 8} {
					opts := Options{Parallelism: nw}
					if st == "spill" {
						opts.Store = store.Config{Kind: store.Spill, MaxBytes: 64 << 10, Dir: t.TempDir()}
					}
					if por {
						opts.Independent = allDependent
					}
					label := fmt.Sprintf("%s %s por=%v workers=%d", sys.name, st, por, nw)
					got, err := Explore([]string{"r"}, sys.expand, opts)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mustEqualResults(t, label, want, got)
				}
			}
		}
	}
}

// TestRecordTypesArePointerFree keeps the successor record invisible to
// the garbage collector: a pointer field in rawEdge or span would make
// every chunk and span page a scanned object again.
func TestRecordTypesArePointerFree(t *testing.T) {
	mustBeScalar(t, reflect.TypeOf(rawEdge{}), reflect.TypeOf(span{}))
}

// TestResultTypesArePointerFree keeps the canonical edge arena invisible
// to the garbage collector and at 12 bytes an edge: a string label or a
// pointer in Edge would make every Result's arena a scanned object again.
func TestResultTypesArePointerFree(t *testing.T) {
	mustBeScalar(t, reflect.TypeOf(Edge{}))
	if sz := unsafe.Sizeof(Edge{}); sz != 12 {
		t.Errorf("unsafe.Sizeof(Edge{}) = %d, want 12", sz)
	}
}

// mustBeScalar fails t for every field of the given struct types that is
// not a scalar.
func mustBeScalar(t *testing.T, types ...reflect.Type) {
	t.Helper()
	for _, typ := range types {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			switch f.Type.Kind() {
			case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
				reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
				reflect.Bool, reflect.Float32, reflect.Float64:
			default:
				t.Errorf("%s.%s has kind %s: the type must hold only scalar fields", typ.Name(), f.Name, f.Type.Kind())
			}
		}
	}
}

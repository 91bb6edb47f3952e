package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collidingFP degrades stringFP to 4 distinct values (stringFP(s) & 3)
// and sets every probe-start bit: on a table of n slots each probe
// sequence starts at slot n-1 and wraps to slot 0, so in a store of 4
// shards every probe after a shard's first walks through wrap-around and
// confirms the payload of every earlier state of its shard.
func collidingFP(s *string) uint64 { return stringFP(s)&3 | ^uint64(0xff) }

// shardsOf exposes the index of an exact backend.
func shardsOf(t *testing.T, st StateStore[string]) []*shard {
	t.Helper()
	switch st := st.(type) {
	case *memStore[string]:
		return st.shards
	case *spillStore[string]:
		return st.shards
	}
	t.Fatalf("%T is not an exact backend", st)
	return nil
}

// TestConformanceCollidingFingerprint runs the insert/lookup conformance
// checks under collidingFP over the exact backends: every fingerprint
// match must be settled by the payload, so dense ids, no merges, payload
// round-trips and Probe visibility hold only if each confirm really
// compares payloads — on spill, payloads read back from segment pages.
func TestConformanceCollidingFingerprint(t *testing.T) {
	const n = 2048 // 2 default pages or 64 small ones: every page spills
	states := testStates(n)
	all := backendConfigs(t)
	for _, name := range []string{"mem", "spill-tiny", "spill-page32"} {
		cfg := all[name]
		t.Run(name, func(t *testing.T) {
			st, err := New[string](cfg, 4, collidingFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			checkInsertLookup(t, st, states)
			for i, sh := range shardsOf(t, st) {
				if sh.ids[0] == 0 || sh.ids[len(sh.ids)-1] == 0 {
					t.Fatalf("shard %d: probes did not wrap from the last slot to the first", i)
				}
			}
			if cfg.Kind != Spill {
				return
			}
			ss := st.Stats()
			if ss.SpilledStates != n {
				t.Fatalf("spilled %d of %d states", ss.SpilledStates, n)
			}
			// Each post-spill re-intern and Probe confirms against every
			// earlier state of its shard, all of them spilled.
			if min := uint64(n) * (n/4 - 1); ss.CollisionConfirms < min {
				t.Fatalf("CollisionConfirms = %d, want at least %d spilled-payload confirms", ss.CollisionConfirms, min)
			}
		})
	}
}

// spilledStore interns n states into a spill store of 2^pageBits-state
// pages and spills every one of them.
func spilledStore(t *testing.T, n, pageBits int) *spillStore[string] {
	t.Helper()
	st, err := newSpillStore[string](Config{MaxBytes: 1, Dir: t.TempDir(), PageBits: pageBits}, 4, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, s := range testStates(n) {
		st.Intern(s)
	}
	if err := st.Maintain(int32(n)); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().SpilledStates; got != n {
		t.Fatalf("spilled %d of %d states", got, n)
	}
	return st
}

// TestSpillPageChecksum flips one byte of a segment file on disk and
// reads a state of the damaged page: the store must report the checksum
// error, naming the page, through Err and Maintain — not panic, and not
// return a wrong payload.
func TestSpillPageChecksum(t *testing.T) {
	cfg := backendConfigs(t)["spill-tiny"]
	const n = 4096
	states := testStates(n)
	st, err := New[string](cfg, 4, stringFP)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, s := range states {
		st.Intern(s)
	}
	if err := st.Maintain(n); err != nil {
		t.Fatal(err)
	}
	sp := st.(*spillStore[string])
	if len(sp.meta) < 2 {
		t.Fatalf("spilled %d pages, want at least 2", len(sp.meta))
	}
	m := sp.meta[1]
	f, err := os.OpenFile(filepath.Join(cfg.Dir, "seg-00000.dat"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	at := m.off + int64(m.compLen/2)
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	id := int32(1 << defaultPageBits) // first state of page 1
	if got := st.State(id); got != "" {
		t.Fatalf("State(%d) of a damaged page = %q, want the zero state", id, got)
	}
	err = st.Err()
	if !errors.Is(err, errPageChecksum) || !strings.Contains(err.Error(), "page 1") {
		t.Fatalf("Err() = %v, want the page 1 checksum error", err)
	}
	if err := st.Maintain(n); !errors.Is(err, errPageChecksum) {
		t.Fatalf("Maintain = %v, want the sticky checksum error", err)
	}
	// The undamaged page 0 was never cached; with the error sticky, a
	// spilled read now reports nothing rather than risking more I/O.
	if got := st.State(0); got != "" && got != states[0] {
		t.Fatalf("State(0) = %q after the error, want %q or the zero state", got, states[0])
	}
}

// TestDecodePageRejects pins decodePage's refusal of malformed images,
// including the one that used to panic a worker: a page count that fits
// the page size but not the image.
func TestDecodePageRejects(t *testing.T) {
	u32s := func(vs ...uint32) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		return out
	}
	for name, raw := range map[string][]byte{
		"empty":                 nil,
		"short count":           {1, 0},
		"zero count":            u32s(0, 0),
		"count over page size":  u32s(33, 0),
		"table past the image":  u32s(32),
		"table cut short":       u32s(2, 0, 1),
		"first offset not zero": append(u32s(1, 1, 2), "ab"...),
		"offsets decrease":      append(u32s(2, 0, 2, 1), "ab"...),
		"offsets overrun":       append(u32s(1, 0, 3), "ab"...),
		"trailing payload":      append(u32s(1, 0, 1), "ab"...),
	} {
		if _, err := decodePage(raw, 32); err == nil {
			t.Errorf("%s: decodePage accepted % x", name, raw)
		}
	}
}

// FuzzDecodePage checks the page codec on arbitrary bytes: decodePage
// never panics, an image it accepts is canonical (re-encoding its states
// reproduces it byte for byte), and any list of states survives
// encodePage then decodePage unchanged.
func FuzzDecodePage(f *testing.F) {
	st, err := newSpillStore[string](Config{Dir: f.TempDir(), PageBits: 5}, 1, stringFP)
	if err != nil {
		f.Fatal(err)
	}
	defer st.Close()
	size := st.pages.size
	encode := func(states []string) []byte {
		pg := &page[string]{slots: make([]string, size)}
		copy(pg.slots, states)
		raw, _ := st.encodePage(pg, len(states))
		return bytes.Clone(raw)
	}
	for _, states := range [][]string{{""}, {"a"}, {"x", "", "yz"}, testStates(size)} {
		f.Add(encode(states))
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, uint32(size)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if img, err := decodePage(raw, size); err == nil {
			states := make([]string, img.count())
			for i := range states {
				states[i] = string(img.state(i))
			}
			if re := encode(states); !bytes.Equal(re, raw) {
				t.Fatalf("accepted image % x re-encodes as % x", raw, re)
			}
		}
		states := strings.Split(string(raw), "\x00")
		if len(states) > size {
			states = states[:size]
		}
		enc := encode(states)
		img, err := decodePage(enc, size)
		if err != nil {
			t.Fatalf("encodePage output rejected: %v", err)
		}
		if img.count() != len(states) {
			t.Fatalf("decoded %d states, encoded %d", img.count(), len(states))
		}
		for i, want := range states {
			if got := st.codec.dec(img.state(i)); got != want {
				t.Fatalf("state %d: decoded %q, encoded %q", i, got, want)
			}
		}
	})
}

// TestInternAllocs pins the allocation profile of the exact backends'
// intern path: a hit on a resident state allocates nothing, and a fresh
// InternBytes allocates less than once per call (slab chunk turnover,
// table growth and new pages amortize to zero in AllocsPerRun's integer
// average).
func TestInternAllocs(t *testing.T) {
	const warm, fresh = 4096, 1000
	states := testStates(warm + fresh + 1)
	keys := make([][]byte, len(states))
	fps := make([]uint64, len(states))
	for i, s := range states {
		keys[i] = []byte(s)
		fps[i] = stringFP(&s)
	}
	for _, kind := range []Kind{Mem, Spill} {
		t.Run(string(kind), func(t *testing.T) {
			st, err := New[string](Config{Kind: kind, Dir: t.TempDir()}, 4, stringFP)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			bi := st.(BytesInterner)
			for i := 0; i < warm; i++ {
				bi.InternBytes(fps[i], keys[i])
			}
			if a := testing.AllocsPerRun(100, func() { bi.InternBytes(fps[7], keys[7]) }); a != 0 {
				t.Errorf("InternBytes hit: %v allocs/op, want 0", a)
			}
			next := warm
			if a := testing.AllocsPerRun(fresh, func() {
				if _, isNew := bi.InternBytes(fps[next], keys[next]); !isNew {
					t.Fatalf("state %d was not fresh", next)
				}
				next++
			}); a != 0 {
				t.Errorf("fresh InternBytes: %v allocs/op, want 0", a)
			}
		})
	}
}

// TestSpilledReadAllocs pins the page read-back's allocations: a State
// call that misses the page cache allocates one buffer — the decompressed
// page — beyond what compress/flate's decoder allocates itself, whatever
// the page's state count. (The decoder allocates a link table per long
// Huffman code prefix of each dynamic block it decodes; flateAllocs
// measures that share on the same pages.)
func TestSpilledReadAllocs(t *testing.T) {
	for _, bits := range []int{5, 8} {
		pages := 2 * pageCacheSize
		st := spilledStore(t, pages<<bits, bits)
		p := 0
		read := func() {
			// Cycling through twice the cache's pages in order makes
			// every read an LRU miss.
			st.State(int32(p << bits))
			p = (p + 1) % pages
		}
		for i := 0; i < pages; i++ {
			read() // fill the cache: later misses recycle entries
		}
		before := st.Stats().SegmentReads
		const runs = 4 * pageCacheSize // a whole number of cycles
		got := testing.AllocsPerRun(runs, read)
		if reads := st.Stats().SegmentReads - before; reads != runs+1 {
			t.Fatalf("page bits %d: %d segment reads over %d cache-missing reads", bits, reads, runs+1)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		if ours := got - flateAllocs(t, st, runs); ours != 1 {
			t.Errorf("page bits %d: %v allocs per page-cache miss, %v of them outside compress/flate; want 1", bits, got, ours)
		}
	}
}

// flateAllocs is the average allocation count of decompressing one of
// st's spilled pages with a reused reader into a reused buffer, over the
// same page cycle TestSpilledReadAllocs reads.
func flateAllocs(t *testing.T, st *spillStore[string], runs int) float64 {
	t.Helper()
	var maxComp, maxRaw int32
	for _, m := range st.meta {
		maxComp, maxRaw = max(maxComp, m.compLen), max(maxRaw, m.rawLen)
	}
	comp, raw := make([]byte, maxComp), make([]byte, maxRaw)
	var br bytes.Reader
	fr := flate.NewReader(&br)
	p := 0
	avg := testing.AllocsPerRun(runs, func() {
		m := st.meta[p]
		p = (p + 1) % (2 * pageCacheSize)
		if _, err := st.segs[m.seg].ReadAt(comp[:m.compLen], m.off); err != nil {
			t.Fatal(err)
		}
		br.Reset(comp[:m.compLen])
		if err := fr.(flate.Resetter).Reset(&br, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(fr, raw[:m.rawLen]); err != nil {
			t.Fatal(err)
		}
	})
	return avg
}

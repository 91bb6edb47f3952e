package store

import (
	"sync"
	"sync/atomic"
)

// indexEntryOverhead approximates the per-state RAM cost of an exact
// backend's index entry: one 12 B fps/ids slot at the table's average
// load of about one half (it doubles at 13/16 full). The payload and its
// paged-table slot are charged separately, through sizeOf. Accounting
// only — never correctness.
const indexEntryOverhead = 24

// shardInitSlots is the initial open-addressing table size per shard.
const shardInitSlots = 64

// shard is one stripe of an exact backend's visited set: an
// open-addressing fingerprint → id table (linear probing, no deletion)
// and, for string states, a slab arena holding the payload bytes. The mem
// and spill backends share it and differ only in how they confirm a
// fingerprint match against the stored payload, so each keeps its own
// monomorphic probe loop over match:
//
//	i, idp := sh.first(h)
//	for ; idp != 0; i, idp = sh.next(h, i) {
//		if <payload of id idp-1 equals the state> { hit }
//	}
//	// miss: i is the empty slot where put inserts
//
// Compared to a map of id buckets, a hit costs one probe sequence over two
// flat arrays instead of a map lookup plus bucket-slice walk, and a fresh
// intern allocates nothing in steady state.
type shard struct {
	mu sync.Mutex
	// fps[i] is the full 64-bit fingerprint of the occupant of slot i;
	// ids[i] is its id+1, so 0 marks an empty slot. Probing starts at
	// fingerprint bits disjoint from the shard-selection bits and walks
	// linearly; equal fingerprints of distinct states (a real 64-bit
	// collision, or the test-only degraded fingerprint) simply occupy
	// separate slots and are disambiguated by payload confirmation.
	fps  []uint64
	ids  []int32
	used int
	// bytes is the mem backend's per-shard resident accounting (spill
	// accounts globally, since spilling frees whole pages across shards).
	// It is atomic, not mutex-guarded like the rest: Stats may run from
	// the telemetry monitor while workers intern, and reads it without
	// taking every shard's mutex.
	bytes atomic.Int64
	arena slab
}

func newShards(n int) []*shard {
	out := make([]*shard, n)
	for i := range out {
		out[i] = &shard{
			fps: make([]uint64, shardInitSlots),
			ids: make([]int32, shardInitSlots),
		}
	}
	return out
}

// probeAt returns the slot index where h's probe sequence starts. The low
// byte of h selects the shard, so the start position uses the bits above
// it to keep the within-shard spread independent of the sharding.
func probeAt(h uint64, n int) int { return int((h >> 8) & uint64(n-1)) }

// match walks h's probe sequence from slot i and returns the first slot
// that is empty or holds fingerprint h, with its id+1 (0 when empty).
// Caller holds mu.
func (sh *shard) match(h uint64, i int) (int, int32) {
	mask := len(sh.ids) - 1
	for i &= mask; ; i = (i + 1) & mask {
		if idp := sh.ids[i]; idp == 0 || sh.fps[i] == h {
			return i, idp
		}
	}
}

// first starts h's probe sequence: see match.
func (sh *shard) first(h uint64) (int, int32) { return sh.match(h, probeAt(h, len(sh.ids))) }

// next continues h's probe sequence past slot i, whose occupant did not
// confirm: see match.
func (sh *shard) next(h uint64, i int) (int, int32) { return sh.match(h, i+1) }

// put records id under fingerprint h in the empty slot i that ended a
// missed probe sequence, growing the table past 13/16 load. The slot
// index is invalid afterwards. Caller holds mu.
func (sh *shard) put(i int, h uint64, id int32) {
	sh.fps[i] = h
	sh.ids[i] = id + 1
	sh.used++
	if sh.used*16 >= len(sh.ids)*13 {
		sh.grow()
	}
}

// grow doubles the table and reinserts every occupant. Caller holds mu.
func (sh *shard) grow() {
	oldFps, oldIds := sh.fps, sh.ids
	n := len(oldFps) * 2
	sh.fps = make([]uint64, n)
	sh.ids = make([]int32, n)
	for j, idp := range oldIds {
		if idp == 0 {
			continue
		}
		h := oldFps[j]
		i := probeAt(h, n)
		for sh.ids[i] != 0 {
			i = (i + 1) & (n - 1)
		}
		sh.fps[i] = h
		sh.ids[i] = idp
	}
}

// own returns the payload a store keeps for a fresh state: string states
// are copied into the shard's slab and published as a zero-copy view, so
// the store owns dense, stable bytes regardless of where the caller's
// string came from; other types are values already. Caller holds mu.
func own[S comparable](sh *shard, s S) S {
	if str, ok := any(&s).(*string); ok {
		*str = sh.arena.addString(*str)
	}
	return s
}

// ownBytes is own for a state arriving as its payload bytes (string
// states only).
func ownBytes[S comparable](sh *shard, b []byte) S {
	var s S
	*any(&s).(*string) = sh.arena.addBytes(b)
	return s
}

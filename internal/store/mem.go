package store

import "sync/atomic"

// memStore is the RAM-resident backend: open-addressing fingerprint
// shards (see shard) over the shared paged id -> payload table. String
// payloads are copied into per-shard slab arenas and stored as zero-copy
// views, so the hot intern path allocates only on chunk turnover and
// table growth. A fingerprint match is confirmed against the resident
// payload.
type memStore[S comparable] struct {
	shards   []*shard
	mask     uint64
	fp       func(*S) uint64
	sizeOf   func(*S) int64
	isString bool
	counter  atomic.Int64
	pages    pagetab[S]
}

func newMemStore[S comparable](shards int, fp func(*S) uint64) *memStore[S] {
	var zero S
	_, isString := any(zero).(string)
	st := &memStore[S]{
		shards:   newShards(shards),
		mask:     uint64(shards - 1),
		fp:       fp,
		sizeOf:   sizeOfFunc[S](),
		isString: isString,
	}
	st.pages.init(0)
	return st
}

func (st *memStore[S]) Intern(s S) (int32, bool) {
	h := st.fp(&s)
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, idp := sh.first(h)
	for ; idp != 0; i, idp = sh.next(h, i) {
		if st.pages.get(idp-1) == s {
			return idp - 1, false
		}
	}
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, own(sh, s))
	sh.bytes.Add(st.sizeOf(&s) + indexEntryOverhead)
	sh.put(i, h, id)
	return id, true
}

// BytesSupported reports whether InternBytes is usable: the payload type
// must be string (the bytes ARE the state).
func (st *memStore[S]) BytesSupported() bool { return st.isString }

// InternBytes interns the string state whose payload is b without
// materializing it: h must be the fingerprint the store's fp would assign
// to string(b) (see BytesInterner). On a hit nothing is allocated; on a
// fresh intern the bytes are slab-copied and published as a zero-copy
// string view.
func (st *memStore[S]) InternBytes(h uint64, b []byte) (int32, bool) {
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, idp := sh.first(h)
	for ; idp != 0; i, idp = sh.next(h, i) {
		v := st.pages.get(idp - 1)
		if *any(&v).(*string) == string(b) {
			return idp - 1, false
		}
	}
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, ownBytes[S](sh, b))
	sh.bytes.Add(int64(len(b)) + stringHeaderBytes + indexEntryOverhead)
	sh.put(i, h, id)
	return id, true
}

func (st *memStore[S]) State(id int32) S { return st.pages.get(id) }

func (st *memStore[S]) Probe(s S) (int32, bool) {
	h := st.fp(&s)
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, idp := sh.first(h); idp != 0; i, idp = sh.next(h, i) {
		if st.pages.get(idp-1) == s {
			return idp - 1, true
		}
	}
	return -1, false
}

func (st *memStore[S]) Len() int { return int(st.counter.Load()) }

func (st *memStore[S]) Stats() Stats {
	out := Stats{
		Kind:       Mem,
		States:     st.Len(),
		ShardBytes: make([]int64, len(st.shards)),
	}
	for i, sh := range st.shards {
		out.ShardBytes[i] = sh.bytes.Load()
		out.BytesInRAM += out.ShardBytes[i]
	}
	return out
}

func (st *memStore[S]) Maintain(int32) error { return nil }
func (st *memStore[S]) Err() error           { return nil }
func (st *memStore[S]) Close() error         { return nil }

package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The spill backend shares the mem backend's index (see shard): the
// open-addressing fingerprint table stays in RAM and fresh string
// payloads are slab-copied into the paged table, until the resident
// budget is exceeded. Then Maintain moves whole pages of the *oldest*
// payloads into flate-compressed, append-only segment files. Ids are
// assigned in interning order, so "oldest" means the earliest BFS levels:
// exactly the states the frontier's dedup hits target least, which keeps
// the confirm-read rate low. A fingerprint match on a spilled id is
// confirmed by decompressing its page back (served through a small LRU
// page cache), so the backend stays exact: no 64-bit collision is ever
// trusted.
//
// Layout of one spilled page (before compression):
//
//	u32 count                      number of states in the page
//	u32 off[count+1]               payload-section offsets, off[0] = 0
//	payload bytes                  count encoded states, back to back
//
// Each page is an independent flate stream at a recorded (segment, offset,
// length), so a single confirm decompresses one page, never a segment.
// pageMeta also records the CRC-32C of the compressed bytes: flate has no
// checksum of its own, so without it a damaged segment could decode to a
// silently wrong state. A page read back is one fresh buffer, and its
// string states are views of it (see codec); the compressed-read buffer
// and the flate reader are reused. Crash safety is still a non-goal:
// segments are deleted on Close, and a store never outlives its run.

// pageCacheSize is the capacity, in pages, of the decompressed-page LRU
// cache serving confirm and replay reads.
const pageCacheSize = 64

// spillLowWater is the fraction of MaxBytes that Maintain spills down to
// once the budget trips, so each spill round writes a batch of pages
// instead of shaving single pages every barrier.
const spillLowWater = 0.75

// castagnoli is the CRC-32C table for page checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errPageChecksum reports a spilled page whose compressed bytes no longer
// match the checksum recorded when it was written.
var errPageChecksum = errors.New("page checksum mismatch")

// pageMeta locates one spilled page inside the segment files.
type pageMeta struct {
	seg     int32
	compLen int32
	off     int64
	rawLen  int32
	crc     uint32 // CRC-32C of the compressed bytes
}

type cacheEnt[S comparable] struct {
	pg      *page[S]
	lastUse uint64
}

type spillStore[S comparable] struct {
	shards   []*shard
	mask     uint64
	fp       func(*S) uint64
	sizeOf   func(*S) int64
	isString bool
	codec    *codec[S]
	maxBytes int64
	counter  atomic.Int64
	pages    pagetab[S]

	// resident is the payload bytes currently in RAM; spilledTo (a page
	// count) is the watermark: ids below spilledTo<<pages.bits live on disk.
	resident  atomic.Int64
	spilledTo atomic.Int32

	dir    string
	ownDir bool

	// segMu guards everything below: segment files, page metadata, the
	// decompressed-page cache, the read buffers and the sticky I/O error.
	// Readers holding a shard lock may take segMu (never the reverse), so
	// lock order is shard -> seg.
	segMu     sync.Mutex
	segs      []*os.File
	meta      []pageMeta
	cache     map[int32]*cacheEnt[S]
	cacheTick uint64
	ioErr     error

	// compBuf, compReader and flateR are the page read-back scratch: the
	// compressed bytes of the page being read and the reader decompressing
	// them, reused across reads (flateR is created on the first one).
	compBuf    []byte
	compReader bytes.Reader
	flateR     io.ReadCloser

	spilledStates int
	bytesSpilled  int64
	compBytes     int64
	segReads      atomic.Uint64
	confirms      atomic.Uint64
	cacheHits     atomic.Uint64

	// readLat and writeLat time the per-page segment I/O: a decompress-read
	// on a cache miss, a compress-write during Maintain. Both paths are
	// disk-bound, so always-on observation costs two clock reads per page —
	// noise next to the I/O itself.
	readLat  obs.Hist
	writeLat obs.Hist

	// encScratch and compScratch are the Maintain-only encode buffers: the
	// raw page image and its compressed form, reused across pages and
	// rounds so the spill write path allocates nothing per state.
	encScratch  []byte
	compScratch bytes.Buffer
	flateW      *flate.Writer
}

func newSpillStore[S comparable](cfg Config, shards int, fp func(*S) uint64) (*spillStore[S], error) {
	cdc := codecFor[S]()
	if cdc == nil {
		return nil, fmt.Errorf("%w: %T", ErrNoCodec, *new(S))
	}
	var zero S
	_, isString := any(zero).(string)
	st := &spillStore[S]{
		shards:   newShards(shards),
		mask:     uint64(shards - 1),
		fp:       fp,
		sizeOf:   sizeOfFunc[S](),
		isString: isString,
		codec:    cdc,
		maxBytes: cfg.MaxBytes,
		cache:    make(map[int32]*cacheEnt[S], pageCacheSize),
	}
	st.pages.init(cfg.PageBits)
	if st.maxBytes <= 0 {
		st.maxBytes = DefaultMaxBytes
	}
	st.dir = cfg.Dir
	if st.dir == "" {
		dir, err := os.MkdirTemp("", "store-spill-*")
		if err != nil {
			return nil, fmt.Errorf("store: spill dir: %w", err)
		}
		st.dir, st.ownDir = dir, true
	}
	var err error
	if st.flateW, err = flate.NewWriter(io.Discard, flate.BestSpeed); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *spillStore[S]) Intern(s S) (int32, bool) {
	h := st.fp(&s)
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, idp := sh.first(h)
	for ; idp != 0; i, idp = sh.next(h, i) {
		if st.equals(idp-1, s) {
			return idp - 1, false
		}
	}
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, own(sh, s))
	st.resident.Add(st.sizeOf(&s))
	sh.put(i, h, id)
	return id, true
}

// BytesSupported reports whether InternBytes is usable (string states).
func (st *spillStore[S]) BytesSupported() bool { return st.isString }

// InternBytes is the zero-copy intern path (see store.BytesInterner). A
// dedup hit — the overwhelmingly common case on the hot path — allocates
// nothing, including when the confirm reads a spilled page back from the
// cache (the comparison against the decoded payload converts nothing). A
// fresh intern slab-copies the bytes, as on the mem backend, so it too
// allocates only on chunk turnover and table growth.
func (st *spillStore[S]) InternBytes(h uint64, b []byte) (int32, bool) {
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, idp := sh.first(h)
	for ; idp != 0; i, idp = sh.next(h, i) {
		if st.equalsBytes(idp-1, b) {
			return idp - 1, false
		}
	}
	id := int32(st.counter.Add(1) - 1)
	st.pages.set(id, ownBytes[S](sh, b))
	st.resident.Add(int64(len(b)) + stringHeaderBytes)
	sh.put(i, h, id)
	return id, true
}

// equalsBytes is equals against raw payload bytes; the conversion in the
// comparison does not allocate.
func (st *spillStore[S]) equalsBytes(id int32, b []byte) bool {
	if int(id) < int(st.spilledTo.Load())<<st.pages.bits {
		st.confirms.Add(1)
		v, ok := st.spilledState(id)
		return ok && *any(&v).(*string) == string(b)
	}
	v := st.pages.get(id)
	return *any(&v).(*string) == string(b)
}

// equals confirms a fingerprint match against the real payload of id,
// reading the segment back when the payload was spilled. Called with the
// owning shard locked, which orders it after the payload write of any id
// interned during the current level (same state, same fingerprint, same
// shard); payloads from earlier levels are ordered by the level barrier.
func (st *spillStore[S]) equals(id int32, s S) bool {
	if int(id) < int(st.spilledTo.Load())<<st.pages.bits {
		st.confirms.Add(1)
		v, ok := st.spilledState(id)
		return ok && v == s
	}
	return st.pages.get(id) == s
}

func (st *spillStore[S]) State(id int32) S {
	if int(id) < int(st.spilledTo.Load())<<st.pages.bits {
		v, _ := st.spilledState(id)
		return v
	}
	return st.pages.get(id)
}

func (st *spillStore[S]) Probe(s S) (int32, bool) {
	h := st.fp(&s)
	sh := st.shards[h&st.mask]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i, idp := sh.first(h); idp != 0; i, idp = sh.next(h, i) {
		if st.equals(idp-1, s) {
			return idp - 1, true
		}
	}
	return -1, false
}

func (st *spillStore[S]) Len() int { return int(st.counter.Load()) }

// spilledState fetches the payload of a spilled id through the page cache.
// On I/O or decode failure it records the sticky error (surfaced at the
// next barrier's Maintain, which aborts the run) and reports !ok, which
// the confirm path treats as a mismatch — wrong only in runs that are
// already doomed.
func (st *spillStore[S]) spilledState(id int32) (S, bool) {
	pno := int32(int(id) >> st.pages.bits)
	st.segMu.Lock()
	defer st.segMu.Unlock()
	st.cacheTick++
	if ent, ok := st.cache[pno]; ok {
		ent.lastUse = st.cacheTick
		st.cacheHits.Add(1)
		return ent.pg.slots[int(id)&st.pages.mask], true
	}
	var zero S
	if st.ioErr != nil {
		return zero, false
	}
	t := time.Now()
	ent := st.freeEntry()
	if err := st.readPage(pno, ent.pg.slots); err != nil {
		st.ioErr = fmt.Errorf("store: spill read of page %d: %w", pno, err)
		return zero, false
	}
	st.readLat.Observe(int64(time.Since(t)))
	st.segReads.Add(1)
	ent.lastUse = st.cacheTick
	st.cache[pno] = ent
	return ent.pg.slots[int(id)&st.pages.mask], true
}

// freeEntry returns a cache entry to read a page into: a new one while the
// cache has room, else the least recently used one, evicted and recycled.
// Recycling its slots is safe because slots are only read under segMu and
// callers copy the state value out. Caller holds segMu.
func (st *spillStore[S]) freeEntry() *cacheEnt[S] {
	if len(st.cache) < pageCacheSize {
		return &cacheEnt[S]{pg: &page[S]{slots: make([]S, st.pages.size)}}
	}
	var victim int32
	oldest := uint64(1<<64 - 1)
	for p, ent := range st.cache {
		if ent.lastUse < oldest {
			oldest, victim = ent.lastUse, p
		}
	}
	ent := st.cache[victim]
	delete(st.cache, victim)
	return ent
}

// readPage reads, verifies, decompresses and decodes spilled page pno
// into slots. The decompressed image is one fresh buffer per page, never
// written after decoding, so the string states decoded from it are views
// that stay valid for as long as anything references them — the same
// lifetime argument as slab's. Caller holds segMu.
func (st *spillStore[S]) readPage(pno int32, slots []S) error {
	m := st.meta[pno]
	if cap(st.compBuf) < int(m.compLen) {
		st.compBuf = make([]byte, m.compLen)
	}
	comp := st.compBuf[:m.compLen]
	if _, err := st.segs[m.seg].ReadAt(comp, m.off); err != nil {
		return err
	}
	if crc32.Checksum(comp, castagnoli) != m.crc {
		return errPageChecksum
	}
	st.compReader.Reset(comp)
	if st.flateR == nil {
		st.flateR = flate.NewReader(&st.compReader)
	} else if err := st.flateR.(flate.Resetter).Reset(&st.compReader, nil); err != nil {
		return err
	}
	raw := make([]byte, m.rawLen)
	if _, err := io.ReadFull(st.flateR, raw); err != nil {
		return err
	}
	img, err := decodePage(raw, len(slots))
	if err != nil {
		return err
	}
	n := img.count()
	for i := 0; i < n; i++ {
		b := img.state(i)
		if w := st.codec.width; w > 0 && len(b) != w {
			return fmt.Errorf("corrupt state %d: %d bytes, want %d", i, len(b), w)
		}
		slots[i] = st.codec.dec(b)
	}
	clear(slots[n:])
	return nil
}

// pageImage is a validated raw page image (see the layout above): its
// states are subslices of the image.
type pageImage struct {
	offs    []byte // count+1 little-endian u32 payload offsets
	payload []byte
}

func (p pageImage) count() int { return len(p.offs)/4 - 1 }

// state returns the payload bytes of state i < count().
func (p pageImage) state(i int) []byte {
	lo := binary.LittleEndian.Uint32(p.offs[4*i:])
	hi := binary.LittleEndian.Uint32(p.offs[4*i+4:])
	return p.payload[lo:hi:hi]
}

// decodePage parses a decompressed page image of at most pageSize states.
// It rejects every image encodePage cannot produce — a count outside
// [1, pageSize], an offset table or payload cut short, offsets that do
// not start at 0, that decrease, or that end anywhere but the end of the
// image — so state(i) of the result is always in bounds. Pure: it only
// reads raw.
func decodePage(raw []byte, pageSize int) (pageImage, error) {
	if len(raw) < 4 {
		return pageImage{}, fmt.Errorf("short page image (%d bytes)", len(raw))
	}
	count := binary.LittleEndian.Uint32(raw)
	if count < 1 || uint64(count) > uint64(pageSize) {
		return pageImage{}, fmt.Errorf("corrupt page count %d (page size %d)", count, pageSize)
	}
	tab := 4 + 4*(int(count)+1)
	if len(raw) < tab {
		return pageImage{}, fmt.Errorf("page image of %d bytes cut short of its %d-entry offset table", len(raw), count+1)
	}
	img := pageImage{offs: raw[4:tab], payload: raw[tab:]}
	if lo := binary.LittleEndian.Uint32(img.offs); lo != 0 {
		return pageImage{}, fmt.Errorf("corrupt page: first offset %d, want 0", lo)
	}
	prev := uint32(0)
	for i := 1; i <= int(count); i++ {
		off := binary.LittleEndian.Uint32(img.offs[4*i:])
		if off < prev {
			return pageImage{}, fmt.Errorf("corrupt page offsets %d..%d", prev, off)
		}
		prev = off
	}
	if uint64(prev) != uint64(len(img.payload)) {
		return pageImage{}, fmt.Errorf("corrupt page: offsets end at %d, payload is %d bytes", prev, len(img.payload))
	}
	return img, nil
}

// Maintain enforces the budget at a level barrier: while resident payload
// bytes exceed MaxBytes it spills the oldest still-resident full pages
// whose every id is below keepFrom (the next frontier stays in RAM), all
// into one fresh segment file, then drops the pages. Quiescence required.
func (st *spillStore[S]) Maintain(keepFrom int32) error {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	if st.ioErr != nil {
		return st.ioErr
	}
	if st.resident.Load() <= st.maxBytes {
		return nil
	}
	limit := int32(st.counter.Load())
	if keepFrom < limit {
		limit = keepFrom
	}
	spillable := int(limit) >> st.pages.bits // pages wholly below the keep line
	from := int(st.spilledTo.Load())
	if from >= spillable {
		return nil // budget exceeded but nothing eligible; overshoot is bounded by the frontier
	}
	target := int64(float64(st.maxBytes) * spillLowWater)
	if err := st.spillPages(from, spillable, target); err != nil {
		st.ioErr = err
		return err
	}
	return nil
}

// spillPages writes pages [from, upTo) — stopping early once resident
// drops to target — into one new segment file. Caller holds segMu.
func (st *spillStore[S]) spillPages(from, upTo int, target int64) error {
	segNo := len(st.segs)
	f, err := os.Create(filepath.Join(st.dir, fmt.Sprintf("seg-%05d.dat", segNo)))
	if err != nil {
		return fmt.Errorf("store: segment create: %w", err)
	}
	st.segs = append(st.segs, f)
	var fileOff int64
	p := from
	for ; p < upTo && st.resident.Load() > target; p++ {
		pg := st.pages.page(p)
		count := st.pages.size
		if end := int(st.counter.Load()) - p<<st.pages.bits; end < count {
			count = end // only the last eligible page can be partial, and only on the final Maintain
		}
		raw, pageBytes := st.encodePage(pg, count)
		t := time.Now()
		st.compScratch.Reset()
		st.flateW.Reset(&st.compScratch)
		if _, err := st.flateW.Write(raw); err != nil {
			return fmt.Errorf("store: page compress: %w", err)
		}
		if err := st.flateW.Close(); err != nil {
			return fmt.Errorf("store: page compress: %w", err)
		}
		comp := st.compScratch.Bytes()
		if _, err := f.WriteAt(comp, fileOff); err != nil {
			return fmt.Errorf("store: segment write: %w", err)
		}
		st.writeLat.Observe(int64(time.Since(t)))
		st.meta = append(st.meta, pageMeta{
			seg:     int32(segNo),
			compLen: int32(len(comp)),
			off:     fileOff,
			rawLen:  int32(len(raw)),
			crc:     crc32.Checksum(comp, castagnoli),
		})
		fileOff += int64(len(comp))
		st.bytesSpilled += int64(len(raw))
		st.compBytes += int64(len(comp))
		st.spilledStates += count
		st.resident.Add(-pageBytes)
		st.pages.drop(p)
		st.spilledTo.Store(int32(p + 1))
	}
	return nil
}

// encodePage builds the raw page image in the reused scratch buffer and
// returns it together with the resident payload bytes it replaces. The
// buffer is owned by Maintain (quiescent), so zero per-state allocations
// survive steady state — see BenchmarkPageEncode for the before/after.
func (st *spillStore[S]) encodePage(pg *page[S], count int) ([]byte, int64) {
	raw := st.encScratch[:0]
	raw = binary.LittleEndian.AppendUint32(raw, uint32(count))
	offPos := len(raw)
	for i := 0; i <= count; i++ {
		raw = binary.LittleEndian.AppendUint32(raw, 0)
	}
	var pageBytes int64
	base := len(raw)
	for i := 0; i < count; i++ {
		raw = st.codec.enc(raw, &pg.slots[i])
		binary.LittleEndian.PutUint32(raw[offPos+4*(i+1):], uint32(len(raw)-base))
		pageBytes += st.sizeOf(&pg.slots[i])
	}
	st.encScratch = raw
	return raw, pageBytes
}

func (st *spillStore[S]) Stats() Stats {
	out := Stats{
		Kind:              Spill,
		States:            st.Len(),
		MaxBytes:          st.maxBytes,
		SegmentReads:      st.segReads.Load(),
		CollisionConfirms: st.confirms.Load(),
		PageCacheHits:     st.cacheHits.Load(),
		ReadLat:           st.readLat.Snapshot(),
		WriteLat:          st.writeLat.Snapshot(),
	}
	out.BytesInRAM = st.resident.Load() + int64(out.States)*indexEntryOverhead
	st.segMu.Lock()
	out.SpilledStates = st.spilledStates
	out.BytesSpilled = st.bytesSpilled
	out.CompressedBytes = st.compBytes
	out.Segments = len(st.segs)
	st.segMu.Unlock()
	return out
}

func (st *spillStore[S]) Err() error {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	return st.ioErr
}

func (st *spillStore[S]) Close() error {
	st.segMu.Lock()
	defer st.segMu.Unlock()
	var first error
	for _, f := range st.segs {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	st.segs = nil
	if st.ownDir && st.dir != "" {
		if err := os.RemoveAll(st.dir); err != nil && first == nil {
			first = err
		}
		st.dir = ""
	}
	return first
}

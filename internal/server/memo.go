package server

import (
	"bytes"
	"hash/maphash"
	"sync"

	"liquid/internal/core"
	"liquid/internal/telemetry"
)

// baseMemoMaxBytes bounds a server's base memo. At n = 2000 an instance
// entry is charged about 102 KB (a 38 KB span, 16 KB of spec p and 48 KB of
// instance tables) and a profile entry about 24 KB, so the memo holds about
// eight such bases with their profiles.
const baseMemoMaxBytes = 1 << 20

// baseMemo remembers what the what-if parse made of the two large values in
// a body, the instance object and the delegations array, keyed by the
// value's exact bytes. A client probing one base election sends the same
// instance and profile with every edit; on a hit the decoder skips the
// value, and the parse skips validating it. A value is stored from its
// second sighting: the first records only a 64-bit hash of its span, so a
// value sent once (a fresh base, or a body that never repeats) costs no
// copy and evicts nothing. A hash collision only stores a span a sighting
// early; entries stay keyed by exact bytes. It follows ScoreCache's rule:
// each entry is charged its span and its decoded tables, and each hash
// seenBytes, against one byte budget; an entry whose insert would pass the
// budget drops the map and the hashes wholesale, a hash that would pass it
// drops the other hashes, and the entries only when they alone leave no
// room, and a value larger than the budget is not stored. Its hit and miss
// counts go to write-only telemetry.
//
// Entries are shared by every request that sends their bytes, so nothing
// may write to them: election.PreviewDeltas copies the profile and builds a
// new instance for every instance delta, and the delegation check reads the
// profile only. It serves /v1/whatif alone. An evaluate instance grows
// per-alpha approval tables (core.Instance.ApprovalView, up to 64 tables of
// 8n bytes), which a shared entry would keep alive outside the budget; the
// what-if path never builds them.
type baseMemo struct {
	mu       sync.Mutex
	m        map[string]*baseEntry
	seen     map[uint64]struct{} // hashes of spans sighted once
	hashKey  maphash.Seed
	bytes    int // the entries' and hashes' charge against maxBytes
	maxBytes int

	hits, misses *telemetry.Counter
}

// seenBytes is what one recorded hash is charged: its eight-byte key with
// the map's control byte and spare slots.
const seenBytes = 16

// baseEntry is one memoized value: a validated instance with the spec it
// was decoded from, or a validated delegation profile.
type baseEntry struct {
	spec    InstanceSpec
	in      *core.Instance
	profile []int
}

func newBaseMemo() *baseMemo {
	return &baseMemo{
		m:        make(map[string]*baseEntry),
		seen:     make(map[uint64]struct{}),
		hashKey:  maphash.MakeSeed(),
		maxBytes: baseMemoMaxBytes,
		hits:     telemetry.NewCounter("server/whatif_base_hits"),
		misses:   telemetry.NewCounter("server/whatif_base_misses"),
	}
}

// get returns the entry stored under span, or nil.
func (m *baseMemo) get(span []byte) *baseEntry {
	m.mu.Lock()
	e := m.m[string(span)]
	m.mu.Unlock()
	if e == nil {
		m.misses.Inc()
	} else {
		m.hits.Inc()
	}
	return e
}

// put sights a validated value: the first sighting of span records its
// hash, and a later one stores e under a copy of span. A nil memo or span
// records nothing.
func (m *baseMemo) put(span []byte, e baseEntry) {
	if m == nil || span == nil {
		return
	}
	cost := entryCharge(span, &e)
	if cost > m.maxBytes {
		return
	}
	h := maphash.Bytes(m.hashKey, span)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.m[string(span)]; ok {
		return
	}
	if _, ok := m.seen[h]; !ok {
		// A hash makes room by dropping the other hashes, and drops the
		// entries only when they alone leave no room.
		if m.bytes+seenBytes > m.maxBytes {
			m.bytes -= seenBytes * len(m.seen)
			m.seen = make(map[uint64]struct{})
		}
		m.reserve(seenBytes)
		m.seen[h] = struct{}{}
		return
	}
	delete(m.seen, h)
	m.bytes -= seenBytes
	m.reserve(cost)
	stored := e // only a stored entry reaches the heap
	m.m[string(span)] = &stored
}

// reserve charges cost bytes, first dropping the map and the hashes when the
// charge would pass the budget.
func (m *baseMemo) reserve(cost int) {
	if m.bytes+cost > m.maxBytes {
		m.m = make(map[string]*baseEntry)
		m.seen = make(map[uint64]struct{})
		m.bytes = 0
	}
	m.bytes += cost
}

// entryCharge is what an entry counts against the budget: its span, and
// eight bytes a word of every table it holds. An instance holds the spec's
// p and edges, the instance's competencies, their order and their sorted
// copy, and on an explicit graph its adjacency lists (two words an edge
// and three a voter).
func entryCharge(span []byte, e *baseEntry) int {
	words := len(e.profile) + len(e.spec.P) + 2*len(e.spec.Edges)
	if e.in != nil {
		words += 3 * e.in.N()
		if !e.spec.Complete {
			words += 2*len(e.spec.Edges) + 3*e.in.N()
		}
	}
	return len(span) + 8*words
}

// memoValue is the instance or delegations field of a what-if body read
// through a memo. A hit fills the field from the entry; a miss decodes it
// and keeps its span when the span can be stored.
type memoValue struct {
	memo  *baseMemo
	close byte // the byte that ends the value's candidate span
	field any  // *InstanceSpec or *[]int
	hit   *baseEntry
	span  []byte
}

// memoized reads v's field. The candidate span runs from the value's first
// byte to the first close byte: for an instance object, which holds no
// object, the first '}'; for a flat integer array the first ']'. A wrong
// candidate only misses: a hit needs byte equality with a stored span, and
// a span is kept only when decoding ended exactly at its end (and stored
// only once the parse has validated the value), so a hit reads what
// decoding would. An instance span ends in '}' and a profile span in ']',
// so the two kinds never meet in the one map. With no close byte the
// candidate is empty, and no value decodes to nothing, so it only misses.
func (d *decoder) memoized(v *memoValue) {
	d.peek()
	start := d.off
	span := d.body[start : start+bytes.IndexByte(d.body[start:], v.close)+1]
	if v.hit = v.memo.get(span); v.hit != nil {
		switch f := v.field.(type) {
		case *InstanceSpec:
			*f = v.hit.spec
		case *[]int:
			*f = v.hit.profile
		}
		d.off += len(span)
		return
	}
	d.value(v.field)
	if d.err == nil && d.off == start+len(span) {
		v.span = span
	}
}

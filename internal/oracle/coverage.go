package oracle

import (
	"math/bits"
	"slices"
	"strings"
)

// CoverageDigest is the per-trial interleaving-coverage summary mined from
// the happens-before tracker — the greybox feedback signal MUZZ argues
// matters for concurrency bugs: not *which* code ran (every trial runs the
// same app) but *how its callbacks interleaved*. Three signals, each cheap
// to maintain inline with work the tracker already does:
//
//   - RacingPairs: the set of callback-kind pairs observed racing — two
//     units with conflicting accesses to one cell, unordered by
//     happens-before (the same condition that produces a Report, minus the
//     per-cell dedup and report cap). A never-seen racing pair means the
//     schedule drove two kinds of callbacks into a new kind of conflict.
//   - HBDigest: an FNV-1a digest of the trial's type-level HB-edge set —
//     the distinct (predecessor kind → successor kind) causality edges the
//     tracker recorded. Two trials whose callbacks were causally wired the
//     same way share a digest; a fresh digest means a causality shape the
//     campaign has never executed.
//   - Tuples: the callback-kind k-tuples (k=2,3) executed adjacently at the
//     top level of the schedule — the schedule-sensitive n-gram coverage of
//     the interleaving itself.
//
// All three sets are accumulated under the tracker's mutex on the event-loop
// goroutine and emitted sorted, so with a fixed seed under a virtual clock
// the digest is a pure function of the trial (bit-identical across runs).
//
// The bookkeeping is integer work. Each tracker interns every callback kind
// to a dense ID the first time it sees it, in a table that outlives Reset,
// and the trial's edge, tuple and pair sets are sets of those IDs. Names are
// read only to order a racing pair's two kinds, to hash an edge the first
// time a trial records it, and to render a pair or tuple the first time the
// tracker emits it; the string is then kept, in sorted order, for every
// later trial.
type CoverageDigest struct {
	// RacingPairs holds canonical "kindA|kindB" strings, kinds sorted
	// within the pair, the set sorted.
	RacingPairs []string `json:"racing_pairs,omitempty"`
	// HBDigest is the 16-hex-digit XOR-folded FNV-1a digest of the
	// distinct type-level happens-before edges.
	HBDigest string `json:"hb_digest"`
	// Tuples holds "a>b" and "a>b>c" adjacency n-grams, sorted.
	Tuples []string `json:"tuples,omitempty"`
}

// Items counts the digest's coverage items (pairs + tuples + the HB digest
// itself); the campaign uses it as the denominator of the new-coverage
// reward fraction.
func (d CoverageDigest) Items() int {
	return len(d.RacingPairs) + len(d.Tuples) + 1
}

// bitset is a growable set of small non-negative integers.
type bitset []uint64

// add inserts i and reports whether it was absent.
func (s *bitset) add(i int32) bool {
	w := int(i >> 6)
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	bit := uint64(1) << (i & 63)
	if (*s)[w]&bit != 0 {
		return false
	}
	(*s)[w] |= bit
	return true
}

// rows maps a (parent, kind) step to an item: rows[parent][kind] is the
// item's ID + 1, 0 when the step has not been taken. A parent is a kind ID
// or an item ID, depending on the table the rows index into.
type rows [][]int32

// at returns the slot for parent's step by kind, growing the rows to hold it.
func (r *rows) at(parent, kind int32) *int32 {
	for int(parent) >= len(*r) {
		*r = append(*r, nil)
	}
	row := &(*r)[parent]
	for int(kind) >= len(*row) {
		*row = append(*row, 0)
	}
	return &(*row)[kind]
}

// itemTable holds one family of coverage items — racing pairs or adjacency
// tuples — for the tracker's whole life: each item's dense ID, the kind IDs
// it joins, and, once some trial has emitted it, its string and its place
// in the sorted order of every string emitted so far. Only the trial's
// membership (inTrial, trial) is cleared by Reset.
type itemTable struct {
	sep   byte       // '|' for pairs, '>' for tuples
	elems [][3]int32 // item ID → its kinds, in rendered order; -1 pads a pair
	str   []string   // item ID → rendered string, "" until first emitted
	rank  []int32    // item ID → index in order, valid once rendered
	order []int32    // rendered item IDs, sorted by string
	mark  bitset     // emit scratch over ranks, zero between calls

	inTrial bitset  // item IDs of the current trial
	trial   []int32 // the same IDs, in first-seen order
}

// add returns the item in slot, interning it as elems when the slot is
// empty, and records it in the current trial.
func (it *itemTable) add(slot *int32, elems [3]int32) int32 {
	if *slot == 0 {
		it.elems = append(it.elems, elems)
		it.str = append(it.str, "")
		it.rank = append(it.rank, 0)
		*slot = int32(len(it.elems))
	}
	id := *slot - 1
	if it.inTrial.add(id) {
		it.trial = append(it.trial, id)
	}
	return id
}

// reset forgets the trial's membership, keeping every interned item.
func (it *itemTable) reset() {
	for _, id := range it.trial {
		it.inTrial[id>>6] = 0
	}
	it.trial = it.trial[:0]
}

// emit returns the trial's items as sorted strings, nil when there are
// none. Items no earlier call emitted are rendered (one allocation for the
// batch) and merged into the sorted order; every other item is placed by
// its stored rank, with no string built or compared.
func (it *itemTable) emit(kinds []string) []string {
	if len(it.trial) == 0 {
		return nil
	}
	var fresh []int32
	for _, id := range it.trial {
		if it.str[id] == "" {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) > 0 {
		it.render(fresh, kinds)
		it.insert(fresh)
	}
	for _, id := range it.trial {
		it.mark.add(it.rank[id])
	}
	out := make([]string, 0, len(it.trial))
	for w, word := range it.mark {
		for ; word != 0; word &= word - 1 {
			out = append(out, it.str[it.order[w<<6|bits.TrailingZeros64(word)]])
		}
		it.mark[w] = 0
	}
	return out
}

// render builds the fresh items' strings in one backing allocation.
func (it *itemTable) render(fresh []int32, kinds []string) {
	size := 0
	for _, id := range fresh {
		size += it.width(id, kinds)
	}
	var b strings.Builder
	b.Grow(size)
	for _, id := range fresh {
		for i, k := range it.kindsOf(id) {
			if i > 0 {
				b.WriteByte(it.sep)
			}
			b.WriteString(kinds[k])
		}
	}
	all, off := b.String(), 0
	for _, id := range fresh {
		n := it.width(id, kinds)
		it.str[id] = all[off : off+n]
		off += n
	}
}

// kindsOf returns the kind IDs item id joins, in rendered order.
func (it *itemTable) kindsOf(id int32) []int32 {
	e := it.elems[id][:]
	if e[2] < 0 {
		return e[:2]
	}
	return e
}

// width is the length of item id's rendered string.
func (it *itemTable) width(id int32, kinds []string) int {
	n := -1
	for _, k := range it.kindsOf(id) {
		n += 1 + len(kinds[k])
	}
	return n
}

// insert sorts the freshly rendered items and merges them into order from
// the back, re-ranking only the positions that moved.
func (it *itemTable) insert(fresh []int32) {
	slices.SortFunc(fresh, func(a, b int32) int { return strings.Compare(it.str[a], it.str[b]) })
	n := len(it.order)
	it.order = append(it.order, fresh...)
	i, j, k := n-1, len(fresh)-1, len(it.order)-1
	for j >= 0 {
		if i >= 0 && it.str[it.order[i]] > it.str[fresh[j]] {
			it.order[k] = it.order[i]
			i--
		} else {
			it.order[k] = fresh[j]
			j--
		}
		k--
	}
	for r := i + 1; r < len(it.order); r++ {
		it.rank[it.order[r]] = int32(r)
	}
}

// coverage is the tracker-side accumulator behind CoverageDigest.
type coverage struct {
	// The kind table, the item tables with the rows that find their items,
	// and the edge rows outlive Reset.
	kindIDs map[string]int32
	kinds   []string // kind ID → name
	pairs   itemTable
	tuples  itemTable
	racing  rows // name-ordered kind pair → racing-pair item
	tuple2  rows // first kind → second kind → 2-tuple item
	tuple3  rows // 2-tuple item → third kind → 3-tuple item

	// edges[from] holds the to-kinds of the trial's HB edges out of from.
	edges    []bitset
	hbDigest uint64
	// prev1/prev2 are the kinds of the last and second-to-last top-level
	// units and prevPair their 2-tuple's item, for adjacency n-grams;
	// topCount tracks how many top-level units have begun.
	prev1, prev2, prevPair int32
	topCount               int
}

func newCoverage() coverage {
	return coverage{
		kindIDs: make(map[string]int32),
		pairs:   itemTable{sep: '|'},
		tuples:  itemTable{sep: '>'},
	}
}

// intern returns kind's ID, assigning the next one on first sight.
func (c *coverage) intern(kind string) int32 {
	id, ok := c.kindIDs[kind]
	if !ok {
		id = int32(len(c.kinds))
		c.kindIDs[kind] = id
		c.kinds = append(c.kinds, kind)
		c.edges = append(c.edges, nil)
	}
	return id
}

// reset clears the trial's sets in place, keeping every table.
func (c *coverage) reset() {
	for _, row := range c.edges {
		clear(row)
	}
	c.pairs.reset()
	c.tuples.reset()
	c.hbDigest = 0
	c.topCount = 0
}

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so the per-edge
// hash allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// edgeHash fingerprints one type-level HB edge. A NUL separates the kinds
// (kinds are short printable identifiers, never containing NUL), mirroring
// sched.Digest's element framing. The fold is exactly hash/fnv.New64a over
// from || 0x00 || to.
func edgeHash(from, to string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(from); i++ {
		h ^= uint64(from[i])
		h *= fnvPrime64
	}
	// The NUL separator: XOR with 0 is the identity, so only the multiply.
	h *= fnvPrime64
	for i := 0; i < len(to); i++ {
		h ^= uint64(to[i])
		h *= fnvPrime64
	}
	return h
}

// noteHBEdge folds one type-level causality edge into the HB-edge set
// digest, hashing the kind names the first time the trial records the
// edge. XOR over the distinct edges makes the digest order-insensitive: it
// identifies the edge *set*, not the discovery order. Caller holds t.mu.
func (t *Tracker) noteHBEdge(from, to int32) {
	c := &t.cov
	if c.edges[from].add(to) {
		c.hbDigest ^= edgeHash(c.kinds[from], c.kinds[to])
	}
}

// noteTopLevel records a top-level callback execution for adjacency-tuple
// coverage. A 3-tuple is found from the item of its leading 2-tuple (added
// one call earlier) and its last kind. Caller holds t.mu.
func (t *Tracker) noteTopLevel(kind int32) {
	c := &t.cov
	if c.topCount >= 1 {
		pair := c.tuples.add(c.tuple2.at(c.prev1, kind), [3]int32{c.prev1, kind, -1})
		if c.topCount >= 2 {
			c.tuples.add(c.tuple3.at(c.prevPair, kind), [3]int32{c.prev2, c.prev1, kind})
		}
		c.prevPair = pair
	}
	c.prev2, c.prev1 = c.prev1, kind
	c.topCount++
}

// noteRacingPair records that units of kinds a and b raced (conflicting
// accesses, unordered by HB). The pair is canonicalized by kind name so
// (a,b) and (b,a) coincide. Caller holds t.mu.
func (t *Tracker) noteRacingPair(a, b int32) {
	c := &t.cov
	if c.kinds[b] < c.kinds[a] {
		a, b = b, a
	}
	c.pairs.add(c.racing.at(a, b), [3]int32{a, b, -1})
}

// Coverage snapshots the trial's interleaving coverage. Safe on a nil
// receiver (returns the zero digest) and at any point during or after a
// trial; the campaign calls it once, after the trial completes.
func (t *Tracker) Coverage() CoverageDigest {
	if t == nil {
		return CoverageDigest{HBDigest: hbDigestString(0)}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &t.cov
	return CoverageDigest{
		RacingPairs: c.pairs.emit(c.kinds),
		HBDigest:    hbDigestString(c.hbDigest),
		Tuples:      c.tuples.emit(c.kinds),
	}
}

// hbDigestString renders the edge-set digest as fixed-width lower-case hex,
// the same form the campaign journal stores schedule digests in.
func hbDigestString(d uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[d&15]
		d >>= 4
	}
	return string(b[:])
}

package sched

import "math/bits"

// Pattern is a schedule compiled for exact edit-distance queries: the
// bit-vector algorithm of Myers ("A fast bit-vector algorithm for
// approximate string matching based on dynamic programming", JACM 1999) in
// Hyyrö's formulation for the Levenshtein distance ("A bit-vector algorithm
// for computing Levenshtein and Damerau edit distances", 2003).
//
// Compile turns a pattern of length m into one match mask per symbol, of
// ⌈m/64⌉ words each. Distance then scans a text of length n in
// O(n·⌈m/64⌉) word operations, where the dynamic program fills n·m cells,
// and returns the same exact distance: unit-cost insertions, deletions and
// substitutions.
//
// Symbols are dense non-negative IDs. Every symbol of the pattern and of
// each text must lie below the alphabet size given to Compile; a text
// symbol the pattern lacks has an all-zero mask and matches nothing. The
// masks take alphabet·⌈m/64⌉ words, so the alphabet should be the small
// set of kinds a schedule draws from.
//
// A Pattern reuses its storage across Compile and Distance calls, so a warm
// one allocates nothing. The zero value is an empty pattern over an empty
// alphabet. It is not safe for concurrent use.
type Pattern struct {
	m   int      // pattern length
	buf []uint64 // backing array of peq, pv and mv
	// peq holds the match masks, ⌈m/64⌉ words per symbol: bit i of word w
	// of symbol s's mask, peq[s*⌈m/64⌉+w], is set when
	// pattern[64*w+i] == s.
	peq []uint64
	// pv and mv are the current column's vertical deltas, one bit per
	// pattern position in ⌈m/64⌉ words: set in pv where D[i][j]-D[i-1][j]
	// is +1, in mv where it is -1.
	pv, mv []uint64
}

// InternKinds appends the dense ID of each kind of s to dst, giving a kind
// not yet in ids the next free ID, len(ids). Schedules interned through one
// table share its IDs, and len(ids) is the alphabet that covers them all.
func InternKinds(ids map[string]int32, s []string, dst []int32) []int32 {
	for _, k := range s {
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		dst = append(dst, id)
	}
	return dst
}

// Compile makes pattern the one Distance compares texts against. Every
// pattern symbol must lie in [0, alphabet), and so must every symbol of
// the texts passed to Distance until the next Compile.
func (p *Pattern) Compile(pattern []int32, alphabet int) {
	w := (len(pattern) + 63) / 64
	need := (alphabet + 2) * w
	if cap(p.buf) < need {
		p.buf = make([]uint64, need)
	}
	p.m = len(pattern)
	p.peq = p.buf[:alphabet*w]
	p.pv = p.buf[alphabet*w : (alphabet+1)*w]
	p.mv = p.buf[(alphabet+1)*w : need]
	clear(p.peq)
	for i, s := range pattern {
		p.peq[int(s)*w+i/64] |= 1 << (i % 64)
	}
}

// Distance returns the Levenshtein distance between the compiled pattern
// and text.
func (p *Pattern) Distance(text []int32) int {
	peq, pv, mv := p.peq, p.pv, p.mv
	w := len(pv)
	if w == 1 {
		// One word: the deltas stay in registers, and the carry into the
		// word is always the top row's +1.
		vp, vn := ^uint64(0), uint64(0)
		for _, s := range text {
			x := peq[s]
			d0 := (((x & vp) + vp) ^ vp) | x | vn
			hp := (vn|^(d0|vp))<<1 | 1
			hn := (vp & d0) << 1
			vp, vn = hn|^(d0|hp), hp&d0
		}
		pv[0], mv[0] = vp, vn
	} else {
		for k := range pv {
			pv[k], mv[k] = ^uint64(0), 0 // column 0: D[i][0] = i
		}
		for _, s := range text {
			eq := peq[int(s)*w : int(s)*w+w]
			pv, mv := pv[:len(eq)], mv[:len(eq)] // lets the compiler drop bounds checks
			// hp/hn carry the horizontal delta into word k as 0/1 masks
			// for bit 0; the top row D[0][j] = j adds +1 at every column.
			hp, hn := uint64(1), uint64(0)
			for k := range eq {
				x := eq[k] | hn
				vp, vn := pv[k], mv[k]
				d0 := (((x & vp) + vp) ^ vp) | x | vn
				h1 := vn | ^(d0 | vp)
				h0 := vp & d0
				hpS, hnS := h1<<1|hp, h0<<1|hn
				hp, hn = h1>>63, h0>>63
				pv[k] = hnS | ^(d0 | hpS)
				mv[k] = hpS & d0
			}
		}
	}
	// D[m][n] = D[0][n] plus the last column's vertical deltas: n, plus
	// its +1 bits, minus its -1 bits, over rows 1..m. Bits above m-1 in the
	// last word never reach the lower ones, and are masked off.
	dist := len(text)
	for k := range pv {
		vp, vn := pv[k], mv[k]
		if k == len(pv)-1 {
			valid := ^uint64(0) >> (uint(-p.m) % 64)
			vp, vn = vp&valid, vn&valid
		}
		dist += bits.OnesCount64(vp) - bits.OnesCount64(vn)
	}
	return dist
}

package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

// refLevenshtein is the classic two-row dynamic program, O(len(a)*len(b))
// time: the reference the bit-vector kernel must match exactly.
func refLevenshtein(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	// b is now the shorter schedule.
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			cost := 1
			if ai == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// TestLevenshteinMatchesReference compares the kernel with the DP at and
// around every word boundary up to two past the default corpus truncation
// (256), over alphabets of 1, 2 and 7 kinds, on independent random pairs
// and on near-duplicates, in both argument orders.
func TestLevenshteinMatchesReference(t *testing.T) {
	lengths := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300}
	r := rand.New(rand.NewSource(18))
	random := func(n, kinds int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprintf("k%d", r.Intn(kinds))
		}
		return s
	}
	// nearDup edits a copy of s at a few random positions: substitutions,
	// deletions and insertions, so the distance is small but nonzero.
	nearDup := func(s []string, kinds int) []string {
		out := append([]string(nil), s...)
		for e := r.Intn(6); e >= 0; e-- {
			i := r.Intn(len(out) + 1)
			k := fmt.Sprintf("k%d", r.Intn(kinds))
			switch {
			case r.Intn(3) == 0 || i == len(out):
				out = append(out[:i], append([]string{k}, out[i:]...)...)
			case r.Intn(2) == 0:
				out = append(out[:i], out[i+1:]...)
			default:
				out[i] = k
			}
		}
		return out
	}
	check := func(a, b []string) {
		t.Helper()
		want := refLevenshtein(a, b)
		if got := Levenshtein(a, b); got != want {
			t.Fatalf("Levenshtein(len %d, len %d) = %d, reference %d", len(a), len(b), got, want)
		}
		if got := Levenshtein(b, a); got != want {
			t.Fatalf("Levenshtein(len %d, len %d) = %d, reference %d", len(b), len(a), got, want)
		}
	}
	for _, kinds := range []int{1, 2, 7} {
		for _, la := range lengths {
			for _, lb := range lengths {
				a := random(la, kinds)
				check(a, random(lb, kinds))
				check(a, nearDup(a, kinds))
			}
		}
	}
}

// TestPatternReuse: one Pattern recompiled across lengths, alphabets and
// word counts, larger and smaller in turn, gives the reference distance
// every time — stale masks or deltas from an earlier compile must not leak.
func TestPatternReuse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ids := func(n, alphabet int) []int32 {
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(r.Intn(alphabet))
		}
		return s
	}
	strs := func(s []int32) []string {
		out := make([]string, len(s))
		for i, v := range s {
			out[i] = fmt.Sprint(v)
		}
		return out
	}
	var p Pattern
	for round, m := range []int{300, 5, 0, 129, 64, 256, 1, 65} {
		alphabet := 1 + round%4*3
		pat := ids(m, alphabet)
		p.Compile(pat, alphabet)
		for _, n := range []int{0, 1, 64, 200} {
			text := ids(n, alphabet)
			want := refLevenshtein(strs(pat), strs(text))
			for rep := 0; rep < 2; rep++ {
				if got := p.Distance(text); got != want {
					t.Fatalf("round %d (m=%d, n=%d, rep %d): distance %d, reference %d", round, m, n, rep, got, want)
				}
			}
		}
	}
}

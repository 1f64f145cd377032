package sched

import (
	"fmt"
	"testing"
)

// tokens converts fuzz bytes into a type schedule, mapping each byte onto a
// small token alphabet so that matches are common (an all-distinct alphabet
// makes every distance degenerate to max(len(a), len(b))). Schedules are
// capped so the reference DP stays cheap per fuzz iteration, and the cap
// spans four 64-bit words so the kernel's carries between words are reached.
func tokens(s []byte) []string {
	const maxLen = 200
	if len(s) > maxLen {
		s = s[:maxLen]
	}
	out := make([]string, len(s))
	for i, b := range s {
		out[i] = fmt.Sprintf("t%d", b%7)
	}
	return out
}

// FuzzLevenshtein checks the bit-vector kernel against the reference DP and
// the metric axioms of the Figure 7 distance: identity, symmetry, the
// triangle inequality, the standard bounds, and normalization into [0, 1].
func FuzzLevenshtein(f *testing.F) {
	f.Add([]byte("timer"), []byte("net-read"), []byte("work-done"))
	f.Add([]byte{}, []byte{1, 2, 3}, []byte{1, 1, 1, 1})
	f.Add([]byte{0, 7, 14}, []byte{0, 7}, []byte{7, 0})
	f.Fuzz(func(t *testing.T, ab, bb, cb []byte) {
		a, b, c := tokens(ab), tokens(bb), tokens(cb)

		if d := Levenshtein(a, a); d != 0 {
			t.Fatalf("identity violated: L(a,a) = %d", d)
		}
		dab := Levenshtein(a, b)
		if ref := refLevenshtein(a, b); dab != ref {
			t.Fatalf("kernel L(a,b)=%d, reference DP %d", dab, ref)
		}
		if dba := Levenshtein(b, a); dab != dba {
			t.Fatalf("symmetry violated: L(a,b)=%d L(b,a)=%d", dab, dba)
		}
		dac := Levenshtein(a, c)
		dbc := Levenshtein(b, c)
		if dac > dab+dbc {
			t.Fatalf("triangle inequality violated: L(a,c)=%d > L(a,b)+L(b,c)=%d+%d", dac, dab, dbc)
		}

		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		if dab < lo || dab > hi {
			t.Fatalf("bounds violated: L=%d outside [%d, %d] for lens %d/%d", dab, lo, hi, len(a), len(b))
		}

		if n := NormalizedLevenshtein(a, b); n < 0 || n > 1 {
			t.Fatalf("NLD out of range: %v", n)
		}
	})
}

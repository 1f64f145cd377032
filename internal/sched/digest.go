package sched

import (
	"hash/fnv"
	"strconv"
)

// Digest returns a 64-bit FNV-1a fingerprint of a type schedule. Two
// schedules with the same sequence of kinds share a digest; a NUL byte
// terminates each element so element boundaries are unambiguous (callback
// kinds are short printable identifiers and never contain NUL).
//
// Digests give the campaign corpus O(1) exact-duplicate detection before it
// pays for the nearest-neighbour Levenshtein scan behind novelty.
func Digest(types []string) uint64 {
	h := fnv.New64a()
	for _, s := range types {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// DigestString renders a digest as fixed-width hex, the form stored in
// campaign checkpoint journals (JSON numbers lose precision above 2^53 in
// some consumers; strings are unambiguous everywhere).
func DigestString(d uint64) string {
	s := strconv.FormatUint(d, 16)
	for len(s) < 16 {
		s = "0" + s
	}
	return s
}

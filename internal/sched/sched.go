// Package sched records and compares event-loop schedules.
//
// Node.fz §5.3 approximates a libuv schedule by its "type schedule": the
// sequence of callback-type strings ("timer", "network read", "worker pool
// task", ...) in execution order. The variation between two executions is
// the Levenshtein distance between their type schedules, normalized by the
// maximum possible distance so values are comparable across modules
// (Figure 7).
package sched

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry is one executed callback in a schedule.
type Entry struct {
	Seq   int       // execution index, starting at 0
	Kind  string    // callback type, e.g. "timer", "net-read", "work-done"
	Label string    // free-form detail, e.g. the handle or task name
	At    time.Time // wall-clock execution time
}

// Recorder captures the schedule of an execution. It satisfies the event
// loop's Recorder hook. A Recorder is safe for concurrent use: in vanilla
// (non-serialized) mode worker-pool tasks may record concurrently with loop
// callbacks.
//
// The zero value is ready to use.
type Recorder struct {
	// Now supplies entry timestamps; nil means time.Now. Trials running
	// under a virtual clock must point this at the trial clock, or the
	// wall-clock stamps make otherwise deterministic traces diverge.
	Now func() time.Time

	mu      sync.Mutex
	entries []Entry
}

// NewRecorder returns an empty Recorder stamping entries with wall time.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one executed callback to the schedule.
func (r *Recorder) Record(kind, label string) {
	now := time.Now
	if r.Now != nil {
		now = r.Now
	}
	r.mu.Lock()
	r.entries = append(r.entries, Entry{Seq: len(r.entries), Kind: kind, Label: label, At: now()})
	r.mu.Unlock()
}

// Len reports the number of recorded callbacks.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Entries returns a copy of the recorded schedule.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Types returns the type schedule: the Kind of each recorded callback in
// execution order.
func (r *Recorder) Types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Kind
	}
	return out
}

// Reset discards all recorded entries.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.entries = r.entries[:0]
	r.mu.Unlock()
}

// String renders the schedule compactly, one "kind(label)" per element.
func (r *Recorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for i, e := range r.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.Label != "" {
			fmt.Fprintf(&b, "%s(%s)", e.Kind, e.Label)
		} else {
			b.WriteString(e.Kind)
		}
	}
	return b.String()
}

// Histogram returns the count of each callback type, with keys in sorted
// order, useful for summarising long schedules.
func (r *Recorder) Histogram() []TypeCount {
	counts := make(map[string]int)
	r.mu.Lock()
	for _, e := range r.entries {
		counts[e.Kind]++
	}
	r.mu.Unlock()
	out := make([]TypeCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, TypeCount{Kind: k, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// TypeCount is one row of a schedule histogram.
type TypeCount struct {
	Kind string
	N    int
}

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions, unit cost each) between the two type schedules.
//
// It interns both schedules' kinds to dense IDs and runs the bit-vector
// kernel (Pattern) with the shorter schedule as the pattern:
// O(max·⌈min/64⌉) word operations for schedules of lengths max and min.
func Levenshtein(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	kinds := make(map[string]int32)
	ids := make([]int32, 0, len(a)+len(b))
	ids = InternKinds(kinds, b, ids)
	ids = InternKinds(kinds, a, ids)
	var p Pattern
	p.Compile(ids[:len(b)], len(kinds))
	return p.Distance(ids[len(b):])
}

// NormalizedLevenshtein returns Levenshtein(a, b) divided by the maximum
// possible distance, max(len(a), len(b)), so 0 means identical schedules and
// 1 means nothing in common. Two empty schedules have distance 0.
func NormalizedLevenshtein(a, b []string) float64 {
	return normalize(Levenshtein(a, b), len(a), len(b))
}

// normalize divides distance d between schedules of lengths la and lb by
// max(la, lb), taking two empty schedules to 0.
func normalize(d, la, lb int) float64 {
	n := max(la, lb)
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// Truncate returns the first n elements of the schedule (or the schedule
// itself if shorter). Figure 7 considers only the first 20K callbacks of
// each schedule, as the paper does: its Levenshtein DP is quadratic.
func Truncate(s []string, n int) []string {
	if n >= 0 && len(s) > n {
		return s[:n]
	}
	return s
}

// MeanPairwiseNLD computes the mean normalized Levenshtein distance over all
// unordered pairs of the given schedules, truncating each schedule to
// truncate callbacks first (truncate < 0 means no truncation). This is the
// Figure 7 statistic. It returns 0 when fewer than two schedules are given.
//
// Each schedule is compiled once as a Pattern and scanned against every
// later one; pairs are summed in (i, j) order, i < j.
func MeanPairwiseNLD(schedules [][]string, truncate int) float64 {
	if len(schedules) < 2 {
		return 0
	}
	kinds := make(map[string]int32)
	ids := make([][]int32, len(schedules))
	for i, s := range schedules {
		ids[i] = InternKinds(kinds, Truncate(s, truncate), nil)
	}
	var p Pattern
	var sum float64
	var pairs int
	for i := 0; i < len(ids)-1; i++ {
		p.Compile(ids[i], len(kinds))
		for j := i + 1; j < len(ids); j++ {
			sum += normalize(p.Distance(ids[j]), len(ids[i]), len(ids[j]))
			pairs++
		}
	}
	return sum / float64(pairs)
}

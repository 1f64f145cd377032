// Package metrics is the runtime's observability substrate: a low-overhead,
// per-loop registry of atomic counters, gauges, and bounded histograms.
//
// The evaluation (§5) hinges on quantities the runtime must count as it
// runs — per-phase execution activity, scheduler decisions (deferrals,
// shuffles, lookahead picks), worker-pool queue depths, loop lag — and a
// campaign-scale fuzzer needs the same telemetry to allocate trials well.
// The design constraints follow from where the instruments sit:
//
//   - Hot path (per callback, per task, per phase): a single atomic add.
//     No locks, no maps, no allocation. Instrument handles are resolved
//     once (Registry.Counter et al.) and then hit directly.
//   - Cold path (creation, snapshot): a mutex around the name maps.
//   - Off: a nil *Registry hands out nil instruments, whose recording
//     methods do nothing, so instrumented code records unconditionally and
//     costs one nil check when nobody collects metrics.
//
// Instruments are monotonic (Counter), last-value (Gauge), or distribution
// (Histogram, fixed bucket bounds chosen at creation). Snapshot captures
// the whole registry as a plain JSON-marshallable value. export.go and
// fleet.go define the records that carry snapshots and fleet status out as
// JSON Lines; internal/jsonl writes them.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1; a no-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the counter to stay monotonic); a no-op on
// a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins atomic gauge.
type Gauge struct {
	v atomic.Int64
}

// Set stores v; a no-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta (which may be negative); a no-op on a nil
// gauge.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry is a named collection of instruments. Lookups lock; the returned
// instruments do not — resolve once, then record freely from any goroutine.
// The zero value is not usable; call NewRegistry. A nil *Registry is the
// "metrics off" registry: its lookups return nil instruments.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use; nil on a nil
// registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. bounds must be ascending; they are copied. A
// later call with different bounds returns the existing histogram unchanged.
// Nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every instrument's current value. Safe to call while
// other goroutines record; each individual value is atomically read, so the
// snapshot is per-instrument consistent (not globally consistent).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Reset zeroes every instrument in place, preserving instrument identity:
// handles resolved before the reset keep recording into the same (now
// zeroed) counters, gauges, and histograms. This is what lets a trial arena
// reuse one registry across trials — the loop and pool resolve their
// instrument handles once at construction, and each trial still starts its
// export snapshot from zero.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Names returns the sorted instrument names of each kind, for tests and
// debug dumps.
func (r *Registry) Names() (counters, gauges, hists []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for n := range r.counters {
		counters = append(counters, n)
	}
	for n := range r.gauges {
		gauges = append(gauges, n)
	}
	for n := range r.hists {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return counters, gauges, hists
}

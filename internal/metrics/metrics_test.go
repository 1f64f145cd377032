package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"nodefz/internal/jsonl"
)

// TestConcurrentIncrements hammers one counter, one gauge, and one histogram
// from many goroutines; totals must be exact. Run under -race this also
// proves the hot path is data-race-free.
func TestConcurrentIncrements(t *testing.T) {
	const goroutines = 8
	const perG = 10000

	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DepthBounds())

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(j % 40))
			}
		}(i)
	}
	wg.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	s := h.snapshot()
	var bucketSum int64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != s.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Min != 0 || s.Max != 39 {
		t.Errorf("min/max = %d/%d, want 0/39", s.Min, s.Max)
	}
}

// TestRegistryIdentity: the registry must hand back the same instrument for
// the same name, so hot-path handles resolved in different places agree.
func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("same-name counters are distinct")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Error("same-name gauges are distinct")
	}
	h1 := r.Histogram("z", []int64{1, 2})
	h2 := r.Histogram("z", []int64{100, 200, 300}) // bounds ignored after creation
	if h1 != h2 {
		t.Error("same-name histograms are distinct")
	}
	if got := len(h1.bounds); got != 2 {
		t.Errorf("histogram bounds overwritten: len = %d, want 2", got)
	}
	c, g, h := r.Names()
	if !reflect.DeepEqual(c, []string{"x"}) || !reflect.DeepEqual(g, []string{"y"}) || !reflect.DeepEqual(h, []string{"z"}) {
		t.Errorf("Names() = %v %v %v", c, g, h)
	}
}

// TestNilRegistryIsOff: a nil registry is "metrics off" — it hands out nil
// instruments whose recording methods do nothing, so instrumented code
// records unconditionally without a registry behind it.
func TestNilRegistryIsOff(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", DurationBounds())
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned instruments %v %v %v, want nil", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(-1)
	h.Observe(7)
	h.ObserveDuration(time.Millisecond)
}

// TestHistogramBuckets pins the bucket convention: bucket i counts
// bounds[i-1] < v <= bounds[i], final bucket is the overflow.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30})
	for _, v := range []int64{-5, 0, 10} { // all <= 10
		h.Observe(v)
	}
	h.Observe(11) // (10, 20]
	h.Observe(20)
	h.Observe(21) // (20, 30]
	h.Observe(30)
	h.Observe(31) // > 30 overflow
	h.Observe(1000)

	s := h.snapshot()
	want := []int64{3, 2, 2, 2}
	if !reflect.DeepEqual(s.Buckets, want) {
		t.Errorf("buckets = %v, want %v", s.Buckets, want)
	}
	if s.Count != 9 {
		t.Errorf("count = %d, want 9", s.Count)
	}
	if s.Min != -5 || s.Max != 1000 {
		t.Errorf("min/max = %d/%d, want -5/1000", s.Min, s.Max)
	}
	if got := s.Sum; got != -5+0+10+11+20+21+30+31+1000 {
		t.Errorf("sum = %d", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]int64{10, 20, 30})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v % 40) // uniform over 0..39
	}
	s := h.snapshot()
	// Estimates are bucket upper bounds clamped to [Min, Max]: q0 may
	// overshoot the true minimum by up to one bucket, never undershoot.
	if q := s.Quantile(0); q < s.Min || q > 10 {
		t.Errorf("q0 = %d, want within [min %d, first bound 10]", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("q1 = %d, want max %d", q, s.Max)
	}
	// The median of uniform 0..39 lands in the (10, 20] bucket; the estimate
	// is that bucket's upper bound.
	if q := s.Quantile(0.5); q != 20 {
		t.Errorf("q0.5 = %d, want 20", q)
	}

	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %d, want 0", q)
	}
	if m := empty.Mean(); m != 0 {
		t.Errorf("empty mean = %d, want 0", m)
	}
}

// TestSnapshotJSONRoundTrip: Snapshot is plain data and must survive
// marshal/unmarshal exactly, both bare and wrapped in a TrialRecord stream.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.calls").Add(7)
	r.Gauge("a.depth").Set(-3)
	h := r.Histogram("a.ns", DurationBounds())
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(40 * time.Microsecond)

	snap := r.Snapshot()
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Errorf("snapshot round trip mismatch:\n got %+v\nwant %+v", back, snap)
	}

	recs := []TrialRecord{
		{Bug: "SIO", Mode: "nodeFZ", Seed: 1, Trial: 0, Manifested: true, Note: "mixed", Metrics: snap, Schedule: []string{"timer", "net-read"}},
		{Mode: "nodeV", Seed: 2, Trial: 1, Metrics: snap},
	}
	var buf bytes.Buffer
	w := jsonl.New[TrialRecord](&buf)
	if err := w.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Fatalf("writer count = %d, want %d", w.Count(), len(recs))
	}
	var got []TrialRecord
	for dec := json.NewDecoder(&buf); dec.More(); {
		var rec TrialRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("JSONL round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

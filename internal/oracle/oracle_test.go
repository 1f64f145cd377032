package oracle

import (
	"bytes"
	"testing"

	"nodefz/internal/jsonl"
)

// run executes fn as one unit with the given registration refs, returning
// a Ref to the unit, mimicking a loop callback execution.
func run(t *Tracker, kind, label string, fn func(), refs ...Ref) Ref {
	tok := t.Begin(kind, label, refs...)
	r := t.Current()
	if fn != nil {
		fn()
	}
	t.End(tok)
	return r
}

func TestNilTrackerIsNoOp(t *testing.T) {
	var tr *Tracker
	tok := tr.Begin("timer", "x")
	tr.Access("cell", Write)
	tr.Sync("k")
	sp := tr.BeginSpan("cell")
	tr.EndSpan(sp)
	tr.End(tok)
	if tr.Reports() != nil || tr.Units() != 0 {
		t.Fatal("nil tracker must report nothing")
	}
	if tr.Current().Valid() {
		t.Fatal("nil tracker Current must be zero")
	}
}

func TestHappensBeforeViaRegistration(t *testing.T) {
	tr := New()
	// Root registers A; A registers B; accesses ordered root→A→B: silent.
	var aRef, bRef Ref
	aRef = run(tr, "timer", "a", func() {
		tr.Access("cell", Write)
		bRef = tr.Current() // B registered from within A
	})
	run(tr, "timer", "b", func() {
		tr.Access("cell", Write)
	}, bRef)
	_ = aRef
	if got := tr.Reports(); len(got) != 0 {
		t.Fatalf("HB-ordered writes must not race, got %+v", got)
	}
}

func TestOrderingViolation(t *testing.T) {
	tr := New()
	root := tr.Current()
	// Two units both registered from root: concurrent. W~W conflicts.
	run(tr, "timer", "a", func() { tr.Access("cell", Write) }, root)
	run(tr, "net-read", "b", func() { tr.Access("cell", Write) }, root)
	got := tr.Reports()
	if len(got) != 1 {
		t.Fatalf("want 1 report, got %+v", got)
	}
	r := got[0]
	if r.Kind != "ordering" || r.Cell != "cell" {
		t.Fatalf("unexpected report %+v", r)
	}
	if r.First.Kind != "timer" || r.Second.Kind != "net-read" {
		t.Fatalf("racing callback kinds wrong: %+v", r)
	}
}

func TestConflictMatrix(t *testing.T) {
	cases := []struct {
		a, b AccessKind
		want bool
	}{
		{Read, Read, false},
		{Atomic, Atomic, false},
		{Read, Write, true},
		{Write, Read, true},
		{Write, Write, true},
		{Atomic, Write, true},
		{Write, Atomic, true},
		{Read, Atomic, true},
		{Atomic, Read, true},
	}
	for _, c := range cases {
		if got := conflicts(c.a, c.b); got != c.want {
			t.Errorf("conflicts(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAtomicityClassification(t *testing.T) {
	tr := New()
	root := tr.Current()
	// Chain: A reads cell, registers B which writes it. Concurrent unit C
	// writes in between. The A(read)...B(write) span is interleaved: the
	// (C,B) pair classifies as atomicity; the (A,C) pair as ordering.
	var bRef Ref
	run(tr, "net-read", "connect", func() {
		tr.Access("cell", Read)
		bRef = tr.Current()
	}, root)
	run(tr, "timer", "destroy", func() { tr.Access("cell", Write) }, root)
	run(tr, "net-read", "connect-done", func() { tr.Access("cell", Write) }, bRef)
	got := tr.Reports()
	if len(got) != 2 {
		t.Fatalf("want 2 reports, got %+v", got)
	}
	if got[0].Kind != "ordering" {
		t.Errorf("first pair should be ordering, got %+v", got[0])
	}
	if got[1].Kind != "atomicity" {
		t.Errorf("interleaved span should be atomicity, got %+v", got[1])
	}
}

func TestFIFOEdges(t *testing.T) {
	tr := New()
	type srcT struct{ _ int }
	src := &srcT{}
	// Two deliveries on one source: FIFO-ordered even with no shared ref.
	tok := tr.BeginKeyed("net-read", "deliver", src)
	tr.Access("cell", Write)
	tr.End(tok)
	tok = tr.BeginKeyed("net-read", "deliver", src)
	tr.Access("cell", Write)
	tr.End(tok)
	if got := tr.Reports(); len(got) != 0 {
		t.Fatalf("same-source deliveries are FIFO-ordered, got %+v", got)
	}
	// A delivery on a different source is concurrent with both; the two
	// unordered pairs share one dedup shape.
	tok = tr.BeginKeyed("net-read", "other", &srcT{})
	tr.Access("cell", Write)
	tr.End(tok)
	if got := tr.Reports(); len(got) != 1 {
		t.Fatalf("cross-source conflicting writes must race, got %+v", got)
	}
}

func TestSyncOrdersCounterUsers(t *testing.T) {
	tr := New()
	root := tr.Current()
	// Gate pattern: three completions increment (atomic), each Syncs; the
	// last one reads the total. Without Sync the read would race.
	for i := 0; i < 2; i++ {
		run(tr, "net-read", "done", func() {
			tr.Access("count", Atomic)
			tr.Sync("gate")
		}, root)
	}
	run(tr, "net-read", "final", func() {
		tr.Access("count", Atomic)
		tr.Sync("gate")
		tr.Access("count", Read) // ordered after all increments via Sync
	}, root)
	if got := tr.Reports(); len(got) != 0 {
		t.Fatalf("gate-synchronized read must not race, got %+v", got)
	}
}

func TestReadRacesAtomicWithoutSync(t *testing.T) {
	tr := New()
	root := tr.Current()
	run(tr, "net-read", "inc", func() { tr.Access("count", Atomic) }, root)
	run(tr, "net-read", "assert", func() { tr.Access("count", Read) }, root)
	if got := tr.Reports(); len(got) != 1 {
		t.Fatalf("unsynchronized read of a counter must race, got %+v", got)
	}
}

func TestSpanInterleaving(t *testing.T) {
	tr := New()
	root := tr.Current()
	// Owner opens a span, continues via a registered callback which closes
	// it; the continuation itself must NOT violate, a concurrent unit must.
	// Accesses use Atomic so only the span check can fire: the test
	// isolates span semantics from the plain race check.
	var contRef Ref
	var sp SpanToken
	run(tr, "timer", "timeout", func() {
		sp = tr.BeginSpan("socket")
		contRef = tr.Current()
	}, root)
	run(tr, "net-read", "checkout", func() { tr.Access("socket", Atomic) }, root)
	run(tr, "work-done", "log-done", func() {
		tr.Access("socket", Atomic) // the span's own continuation: allowed
		tr.EndSpan(sp)
	}, contRef)
	got := tr.Reports()
	if len(got) != 1 {
		t.Fatalf("want exactly the interloper report, got %+v", got)
	}
	if got[0].Kind != "atomicity" || got[0].First.Op != "span" {
		t.Fatalf("span violation malformed: %+v", got[0])
	}
	// After EndSpan, concurrent accesses no longer hit the span.
	run(tr, "net-read", "late", func() { tr.Access("socket", Atomic) }, root)
	if got := tr.Reports(); len(got) != 1 {
		t.Fatalf("closed span still reporting: %+v", got)
	}
}

func TestDetectorTaintSuppression(t *testing.T) {
	tr := New()
	root := tr.Current()
	run(tr, "timer", "app", func() { tr.Access("flag", Write) }, root)
	// The detector polls the flag: concurrent but suppressed.
	var downstream Ref
	run(tr, "timer", "detector", func() {
		tr.Access("flag", Read)
		downstream = tr.Current()
	}, root)
	// Taint propagates: cleanup registered by the detector is suppressed too.
	run(tr, "net-read", "cleanup", func() { tr.Access("flag", Write) }, downstream)
	if got := tr.Reports(); len(got) != 0 {
		t.Fatalf("detector-tainted accesses must be suppressed, got %+v", got)
	}
	// An untainted concurrent unit still races.
	run(tr, "net-read", "other", func() { tr.Access("flag", Write) }, root)
	if got := tr.Reports(); len(got) != 1 {
		t.Fatalf("untainted race must still report, got %+v", got)
	}
}

func TestDedup(t *testing.T) {
	tr := New()
	root := tr.Current()
	for i := 0; i < 5; i++ {
		run(tr, "timer", "a", func() { tr.Access("cell", Write) }, root)
		run(tr, "net-read", "b", func() { tr.Access("cell", Write) }, root)
	}
	got := tr.Reports()
	// All units are mutually concurrent, so there are exactly four shapes:
	// {timer,net-read} × {timer,net-read} as (first,second); 25 raw pairs
	// collapse onto them.
	if len(got) != 4 {
		t.Fatalf("repeated identical races must dedup to 4 shapes, got %d: %+v", len(got), got)
	}
}

func TestNestedUnits(t *testing.T) {
	tr := New()
	root := tr.Current()
	// A drain callback brackets two completions as nested sub-units with
	// their own submit refs; each sub-unit is HB-after its submitter AND
	// the enclosing unit.
	var sub1, sub2 Ref
	run(tr, "timer", "submit1", func() { sub1 = tr.Current() }, root)
	run(tr, "timer", "submit2", func() { sub2 = tr.Current() }, root)
	outer := tr.Begin("pending", "drain", root)
	in1 := tr.Begin("work-done", "d1", sub1)
	tr.Access("cell", Write)
	tr.End(in1)
	in2 := tr.Begin("work-done", "d2", sub2)
	tr.Access("cell", Write) // same enclosing drain: HB via nesting edge
	tr.End(in2)
	tr.End(outer)
	if got := tr.Reports(); len(got) != 0 {
		t.Fatalf("nested sub-units of one drain are ordered, got %+v", got)
	}
}

func TestJSONLDeterminism(t *testing.T) {
	scenario := func() *bytes.Buffer {
		tr := New()
		root := tr.Current()
		run(tr, "timer", "a", func() {
			tr.Access("x", Read)
			tr.Access("y", Write)
		}, root)
		run(tr, "net-read", "b", func() {
			tr.Access("y", Read)
			tr.Access("x", Write)
		}, root)
		var buf bytes.Buffer
		if err := jsonl.New[Report](&buf).Append(tr.Reports()...); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := scenario(), scenario()
	if a.Len() == 0 {
		t.Fatal("scenario must produce reports")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSONL stream not deterministic:\n%s\nvs\n%s", a, b)
	}
}

package vclock

import (
	"sort"
	"testing"
	"time"
)

// FuzzDeadlineHeap runs random push, pop and remove sequences on the
// deadline heap and compares every pop with a reference list sorted by
// (at, tie). After every operation each pending participant's hidx must
// name its entry's slot, and every other participant's must be -1.
func FuzzDeadlineHeap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 3, 1, 2, 3, 2, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 1, 1, 1})
	f.Add([]byte{0, 5, 2, 0, 6, 1, 0, 7, 0, 2, 4, 1, 0, 9, 2, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const nProcs = 8
		v := NewVirtual()
		procs := make([]Proc, nProcs)
		for i := range procs {
			procs[i].Init(v, 0, func() Wait { return Exit() })
		}
		var ref []deadline // the pending entries, in no particular order
		for len(ops) >= 3 {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			p := &procs[int(a)%nProcs]
			switch op % 3 {
			case 0: // file p's deadline, unless one is pending
				if p.hidx >= 0 {
					continue
				}
				tie := uint64(b%3)<<tieSeqBits | v.seq
				v.setDeadline(p, time.Duration(b/3%8), int(b%3))
				ref = append(ref, deadline{at: int64(b / 3 % 8), tie: tie, p: p})
			case 1: // pop the earliest
				if len(ref) == 0 {
					continue
				}
				sort.Slice(ref, func(i, j int) bool {
					if ref[i].at != ref[j].at {
						return ref[i].at < ref[j].at
					}
					return ref[i].tie < ref[j].tie
				})
				got := v.popDeadline()
				if got != ref[0] {
					t.Fatalf("pop = %+v, want %+v", got, ref[0])
				}
				ref = ref[1:]
			case 2: // withdraw p's deadline
				v.clearDeadline(p)
				for i := range ref {
					if ref[i].p == p {
						ref = append(ref[:i], ref[i+1:]...)
						break
					}
				}
			}
			checkDeadlineHeap(t, v, procs, len(ref))
		}
	})
}

func checkDeadlineHeap(t *testing.T, v *Virtual, procs []Proc, want int) {
	t.Helper()
	h := v.deadlines
	if len(h) != want {
		t.Fatalf("heap holds %d deadlines, want %d", len(h), want)
	}
	for i := range h {
		if h[i].p.hidx != i {
			t.Fatalf("slot %d holds a participant whose hidx is %d", i, h[i].p.hidx)
		}
		if i > 0 && h[i].before(&h[(i-1)/2]) {
			t.Fatalf("slot %d orders before its parent", i)
		}
	}
	pending := 0
	for i := range procs {
		if procs[i].hidx >= 0 {
			pending++
		}
	}
	if pending != len(h) {
		t.Fatalf("%d participants claim a slot, the heap holds %d", pending, len(h))
	}
}

// TestWallNanos: Wall.Nanos never decreases and reads time.Since of the
// process's start time: every reading lies between two time.Since readings
// taken around it.
func TestWallNanos(t *testing.T) {
	var c Clock = Wall{}
	last := c.Nanos()
	for i := 0; i < 10000; i++ {
		before := int64(time.Since(wallStart))
		n := c.Nanos()
		after := int64(time.Since(wallStart))
		if n < last {
			t.Fatalf("Wall.Nanos went back from %d to %d", last, n)
		}
		if n < before || n > after {
			t.Fatalf("Wall.Nanos = %d, outside the time.Since readings [%d, %d]", n, before, after)
		}
		last = n
	}
}

// TestVirtualNanosMirrorsNow: a virtual clock's Nanos counts from the
// epoch, Now is the epoch plus Nanos, and Charge and Reset move both.
func TestVirtualNanosMirrorsNow(t *testing.T) {
	v := NewVirtual()
	if v.Nanos() != 0 || !v.Now().Equal(epoch) {
		t.Fatalf("a new clock reads %d ns, %v", v.Nanos(), v.Now())
	}
	v.Charge(1500 * time.Microsecond)
	if v.Nanos() != int64(1500*time.Microsecond) || v.Now().Sub(epoch) != 1500*time.Microsecond {
		t.Fatalf("after Charge(1.5ms): %d ns, %v", v.Nanos(), v.Now())
	}
	v.Reset()
	if v.Nanos() != 0 || !v.Now().Equal(epoch) {
		t.Fatalf("after Reset: %d ns, %v", v.Nanos(), v.Now())
	}
}

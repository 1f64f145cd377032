package eventloop

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// FuzzLegality throws random event batches and random scheduler shuffle
// decisions at the legality pass and asserts the §4.2.1 invariant: whatever
// the scheduler proposes, per-source FIFO order survives, and no event is
// lost or duplicated. The pass must also return exactly what the reference
// model refPerSourceOrder returns, since schedules must not move.
func FuzzLegality(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 1, 0, 2, 1, 0})
	f.Add(int64(42), uint8(1), []byte{0, 0, 0, 0})
	f.Add(int64(7), uint8(4), []byte{3, 3, 2, 1, 0, 3, 2})
	f.Fuzz(func(t *testing.T, seed int64, nSrc uint8, assign []byte) {
		const maxEvents = 48
		if len(assign) > maxEvents {
			assign = assign[:maxEvents]
		}
		srcCount := int(nSrc%5) + 1
		srcs := make([]*Source, srcCount)
		for i := range srcs {
			srcs[i] = &Source{name: "s" + string(rune('a'+i))}
		}

		// Arrival order: ready[i] arrived at position i. A zero source slot
		// models sourceless events (plain posts), which are unconstrained.
		ready := make([]*Event, len(assign))
		arrival := make(map[*Event]int, len(assign))
		for i, b := range assign {
			ev := &Event{Kind: "fuzz"}
			if int(b)%(srcCount+1) != srcCount {
				ev.src = srcs[int(b)%(srcCount+1)]
			}
			ready[i] = ev
			arrival[ev] = i
		}

		// A random "scheduler decision": permute ready and split the
		// permutation into run and deferred.
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(ready))
		var run, deferred []*Event
		for _, idx := range perm {
			if rng.Intn(3) == 0 {
				deferred = append(deferred, ready[idx])
			} else {
				run = append(run, ready[idx])
			}
		}

		wantRun, wantDeferred := refPerSourceOrder(ready, slices.Clone(run), slices.Clone(deferred))
		gotRun, gotDeferred := enforcePerSourceOrder(ready, run, deferred)
		if !slices.Equal(gotRun, wantRun) || !slices.Equal(gotDeferred, wantDeferred) {
			t.Fatalf("legality pass differs from the reference model")
		}

		// No event lost or duplicated.
		seen := make(map[*Event]bool, len(ready))
		for _, e := range gotRun {
			if seen[e] {
				t.Fatalf("event duplicated in output")
			}
			seen[e] = true
		}
		for _, e := range gotDeferred {
			if seen[e] {
				t.Fatalf("event duplicated across run/deferred")
			}
			seen[e] = true
		}
		if len(seen) != len(ready) {
			t.Fatalf("event count changed: %d in, %d out", len(ready), len(seen))
		}
		for _, e := range ready {
			if !seen[e] {
				t.Fatalf("event lost")
			}
		}

		// Per-source arrival order within each list.
		checkFIFO := func(list []*Event, what string) {
			last := make(map[*Source]int)
			for _, e := range list {
				if e.src == nil {
					continue
				}
				if p, ok := last[e.src]; ok && arrival[e] < p {
					t.Fatalf("%s list violates per-source FIFO: arrival %d after %d for source %s",
						what, arrival[e], p, e.src.name)
				}
				last[e.src] = arrival[e]
			}
		}
		checkFIFO(gotRun, "run")
		checkFIFO(gotDeferred, "deferred")

		// Deferral extension: no run event of a source may have arrived
		// after a deferred event of the same source — it could not legally
		// execute this iteration while an earlier sibling waits.
		deferredMin := make(map[*Source]int)
		for _, e := range gotDeferred {
			if e.src == nil {
				continue
			}
			if p, ok := deferredMin[e.src]; !ok || arrival[e] < p {
				deferredMin[e.src] = arrival[e]
			}
		}
		for _, e := range gotRun {
			if e.src == nil {
				continue
			}
			if p, ok := deferredMin[e.src]; ok && arrival[e] > p {
				t.Fatalf("run event (arrival %d) of source %s follows its deferred sibling (arrival %d)",
					arrival[e], e.src.name, p)
			}
		}
	})
}

// refPerSourceOrder is the legality pass as a map-based model: the three
// steps of enforcePerSourceOrder, spelled out with arrival positions,
// per-source deferral minima and per-source slot lists in maps.
func refPerSourceOrder(ready, run, deferred []*Event) ([]*Event, []*Event) {
	pos := make(map[*Event]int, len(ready))
	count := make(map[*Source]int)
	multi := false
	for i, e := range ready {
		pos[e] = i
		if e.src != nil {
			count[e.src]++
			multi = multi || count[e.src] > 1
		}
	}
	if !multi {
		return run, deferred
	}
	deferredMin := make(map[*Source]int)
	for _, e := range deferred {
		if m, ok := deferredMin[e.src]; e.src != nil && (!ok || pos[e] < m) {
			deferredMin[e.src] = pos[e]
		}
	}
	var keep []*Event
	for _, e := range run {
		if m, ok := deferredMin[e.src]; e.src != nil && ok && pos[e] > m {
			deferred = append(deferred, e)
			continue
		}
		keep = append(keep, e)
	}
	bySrc := make(map[*Source][]int)
	for i, e := range keep {
		if e.src != nil {
			bySrc[e.src] = append(bySrc[e.src], i)
		}
	}
	for _, slots := range bySrc {
		evs := make([]*Event, len(slots))
		for j, slot := range slots {
			evs[j] = keep[slot]
		}
		sort.Slice(evs, func(a, b int) bool { return pos[evs[a]] < pos[evs[b]] })
		for j, slot := range slots {
			keep[slot] = evs[j]
		}
	}
	sort.SliceStable(deferred, func(a, b int) bool { return pos[deferred[a]] < pos[deferred[b]] })
	return keep, deferred
}

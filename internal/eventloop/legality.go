package eventloop

import "sort"

// enforcePerSourceOrder is the loop's legality pass over the scheduler's
// shuffle decision (§4.4 "Node.fz Fidelity"). Fuzzing may freely reorder
// events *across* sources — that models input arriving earlier or later —
// but traffic on a particular connection is well-ordered (§4.2.1), so two
// events from the same Source must execute in arrival order. The pass:
//
//  1. extends deferral: if an event of a source is deferred, every later
//     event of that source is deferred too (it cannot legally run first);
//  2. stably reorders same-source events within the run list back into
//     arrival order, keeping the slots the scheduler gave that source;
//  3. sorts the deferred list by arrival order so re-queued events stay
//     FIFO per source across iterations.
//
// Events without a source (plain posts, worker-pool completions) are
// unconstrained.
func enforcePerSourceOrder(ready, run, deferred []*Event) ([]*Event, []*Event) {
	// Fast path: detect a source with two ready events by pairwise scan —
	// ready batches are small, and skipping the map builds keeps the common
	// single-event-per-source poll allocation-free.
	multi := false
outer:
	for i, e := range ready {
		if e.src == nil {
			continue
		}
		for _, f := range ready[:i] {
			if f.src == e.src {
				multi = true
				break outer
			}
		}
	}
	if !multi {
		// No source contributed more than one event; nothing to enforce
		// beyond what the scheduler already returned.
		return run, deferred
	}
	pos := make(map[*Event]int, len(ready))
	for i, e := range ready {
		pos[e] = i
	}

	// Step 1: earliest deferred position per source.
	deferredMin := make(map[*Source]int)
	for _, e := range deferred {
		if e.src == nil {
			continue
		}
		if m, ok := deferredMin[e.src]; !ok || pos[e] < m {
			deferredMin[e.src] = pos[e]
		}
	}
	keep := make([]*Event, 0, len(run))
	for _, e := range run {
		if e.src != nil {
			if m, ok := deferredMin[e.src]; ok && pos[e] > m {
				deferred = append(deferred, e)
				continue
			}
		}
		keep = append(keep, e)
	}

	// Step 2: per-source stable reorder within the kept slots.
	bySrc := make(map[*Source][]int)
	for i, e := range keep {
		if e.src != nil {
			bySrc[e.src] = append(bySrc[e.src], i)
		}
	}
	for _, slots := range bySrc {
		if len(slots) < 2 {
			continue
		}
		evs := make([]*Event, len(slots))
		for j, slot := range slots {
			evs[j] = keep[slot]
		}
		sort.Slice(evs, func(a, b int) bool { return pos[evs[a]] < pos[evs[b]] })
		for j, slot := range slots {
			keep[slot] = evs[j]
		}
	}

	// Step 3: FIFO among deferred events. A list of fewer than two needs no
	// sort, and skipping it spares boxing the slice for sort's interface.
	if len(deferred) > 1 {
		sort.SliceStable(deferred, func(a, b int) bool { return pos[deferred[a]] < pos[deferred[b]] })
	}
	return keep, deferred
}

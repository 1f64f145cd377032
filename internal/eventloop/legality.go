package eventloop

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
// unconstrained. Ready batches are small, so every step scans instead of
// building maps, and the run list is filtered in place: the pass allocates
// nothing unless the deferred list outgrows its buffer.
func enforcePerSourceOrder(ready, run, deferred []*Event) ([]*Event, []*Event) {
	// Fast path: detect a source with two ready events by pairwise scan.
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
	for i, e := range ready {
		e.pos = i
	}

	// Step 1: a run event that arrived after one of the scheduler's
	// deferrals from its source is deferred too.
	held := deferred
	keep := run[:0]
	for _, e := range run {
		if e.src != nil && arrivedAfterSibling(e, held) {
			deferred = append(deferred, e)
			continue
		}
		keep = append(keep, e)
	}

	// Step 2: per-source stable reorder within the kept slots. Each slot
	// takes the earliest-arrived event of its source among the slots from
	// it onwards; swaps stay within one source, so every source keeps its
	// slots.
	for i, e := range keep {
		if e.src == nil {
			continue
		}
		first := i
		for j := i + 1; j < len(keep); j++ {
			if keep[j].src == e.src && keep[j].pos < keep[first].pos {
				first = j
			}
		}
		keep[i], keep[first] = keep[first], keep[i]
	}

	// Step 3: FIFO among deferred events (arrival positions are distinct,
	// so an insertion sort is a stable sort).
	for i := 1; i < len(deferred); i++ {
		e := deferred[i]
		j := i
		for ; j > 0 && deferred[j-1].pos > e.pos; j-- {
			deferred[j] = deferred[j-1]
		}
		deferred[j] = e
	}
	return keep, deferred
}

// arrivedAfterSibling reports whether some event of held shares e's source
// and arrived before e.
func arrivedAfterSibling(e *Event, held []*Event) bool {
	for _, f := range held {
		if f.src == e.src && f.pos < e.pos {
			return true
		}
	}
	return false
}

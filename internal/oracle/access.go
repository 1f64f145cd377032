package oracle

// cellState is the shadow state of one logically-shared cell: a bounded
// history of recent accesses plus the open intended-atomic spans.
type cellState struct {
	hist  []accessRec // ring, newest last, bounded by histCap
	spans []*span
}

// histCap bounds the per-cell access history the race check scans. 128 is
// far beyond any corpus app's live concurrency; older accesses are almost
// always happens-before everything current anyway.
const histCap = 128

type accessRec struct {
	u    *unit
	kind AccessKind
}

// span is one open intended-atomic region (Fig. 2 shape): the owner unit
// opened it, a causally-later unit closes it, and any conflicting access
// by a unit concurrent with the owner lands "inside" the intended-atomic
// section.
type span struct {
	cell  string
	owner *unit
}

// Access tags one read/write/atomic of a shared cell, attributed to the
// executing unit, and checks it against the cell's open spans and recent
// history. Violations are recorded as Reports (deduplicated and bounded).
func (t *Tracker) Access(cell string, kind AccessKind) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.stack[len(t.stack)-1]
	cs := t.cell(cell)

	// Span check: any access kind conflicts with an intended-atomic
	// region. Only a unit concurrent with the span's owner violates it —
	// causal successors (the span's own continuation) are fine.
	for _, s := range cs.spans {
		if s.owner == u || u.tainted || s.owner.tainted {
			continue
		}
		if !happensBefore(s.owner, u) && !happensBefore(u, s.owner) {
			t.noteRacingPair(s.owner.kid, u.kid)
			t.report(Report{
				Kind:   "atomicity",
				Cell:   cell,
				First:  AccessInfo{UnitInfo: s.owner.info(), Op: "span"},
				Second: AccessInfo{UnitInfo: u.info(), Op: kind.String()},
				Trace:  trace(u),
			})
		}
	}

	// Race check: a conflicting earlier access by a unit unordered with
	// this one is an ordering violation; it is classified "atomicity" when
	// this unit's causal past already touched the cell (the pair then
	// interleaves a read...write span, the SIO/GHO shape).
	if !u.tainted {
		for i := len(cs.hist) - 1; i >= 0; i-- {
			rec := cs.hist[i]
			if rec.u == u || rec.u.tainted || !conflicts(rec.kind, kind) {
				continue
			}
			if happensBefore(rec.u, u) {
				continue
			}
			t.noteRacingPair(rec.u.kid, u.kid)
			vkind := "ordering"
			for j := 0; j < i; j++ {
				if p := cs.hist[j]; p.u != rec.u && happensBefore(p.u, u) {
					vkind = "atomicity"
					break
				}
			}
			t.report(Report{
				Kind:   vkind,
				Cell:   cell,
				First:  AccessInfo{UnitInfo: rec.u.info(), Op: rec.kind.String()},
				Second: AccessInfo{UnitInfo: u.info(), Op: kind.String()},
				Trace:  trace(u),
			})
		}
	}

	if len(cs.hist) >= histCap {
		copy(cs.hist, cs.hist[1:])
		cs.hist = cs.hist[:histCap-1]
	}
	cs.hist = append(cs.hist, accessRec{u: u, kind: kind})
}

// BeginSpan opens an intended-atomic region on cell, owned by the
// executing unit: until EndSpan, a conflicting access by any unit
// concurrent with the owner is an atomicity violation. Use it where the
// code spreads one logical read-modify-write over several callbacks (the
// AKA timeout → async log → remove-from-pool chain).
func (t *Tracker) BeginSpan(cell string) SpanToken {
	if t == nil {
		return SpanToken{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &span{cell: cell, owner: t.stack[len(t.stack)-1]}
	t.cell(cell).spans = append(t.cell(cell).spans, s)
	return SpanToken{s: s}
}

// EndSpan closes the region opened by the matching BeginSpan. A span left
// open (a watchdog-killed trial) simply stops mattering when the tracker
// is discarded.
func (t *Tracker) EndSpan(tok SpanToken) {
	if t == nil || tok.s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cs := t.cells[tok.s.cell]
	if cs == nil {
		return
	}
	for i, s := range cs.spans {
		if s == tok.s {
			cs.spans = append(cs.spans[:i], cs.spans[i+1:]...)
			return
		}
	}
}

// cell returns the cell's shadow state, creating it on first use. Caller
// holds t.mu.
func (t *Tracker) cell(name string) *cellState {
	cs := t.cells[name]
	if cs == nil {
		if n := len(t.freeCells); n > 0 {
			cs = t.freeCells[n-1]
			t.freeCells[n-1] = nil
			t.freeCells = t.freeCells[:n-1]
		} else {
			cs = &cellState{}
		}
		t.cells[name] = cs
		t.cellOrder = append(t.cellOrder, name)
	}
	return cs
}

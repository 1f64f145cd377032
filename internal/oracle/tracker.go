package oracle

import "sync"

// unit is one callback execution (or the implicit root for code that runs
// before the loop starts). Units are ordered by the happens-before
// relation maintained in their vector clocks.
type unit struct {
	id      uint64 // creation index; deterministic under virtual time
	kind    string // callback kind as recorded by the substrate ("timer", ...)
	label   string // free-form detail ("detector", handle name, ...)
	chain   int32  // chain of the greedy decomposition this unit belongs to
	index   uint32 // 1-based position within its chain
	vc      vclockT
	parent  *unit // primary predecessor, for the truncated HB trace
	tainted bool
}

// vclockT maps chain → number of that chain's units known to happen-before
// (entries are counts, i.e. the highest 1-based index seen). Chains are
// totally ordered lines, so the prefix property holds and HB is O(1).
type vclockT []uint32

// join folds other into v in place, growing v as needed, and returns v.
func (v vclockT) join(other vclockT) vclockT {
	for len(v) < len(other) {
		v = append(v, 0)
	}
	for i, o := range other {
		if o > v[i] {
			v[i] = o
		}
	}
	return v
}

func (v vclockT) at(chain int32) uint32 {
	if int(chain) < len(v) {
		return v[chain]
	}
	return 0
}

// happensBefore reports a → b. A unit does not happen-before itself.
func happensBefore(a, b *unit) bool {
	if a == nil || b == nil || a == b {
		return false
	}
	return b.vc.at(a.chain) >= a.index
}

// Tracker is the happens-before engine plus the shadow-state detector.
// All methods are safe on a nil receiver (no-ops) and safe for concurrent
// use, though in practice every mutating call happens on the event-loop
// goroutine, which is what makes the report stream deterministic under a
// virtual clock.
type Tracker struct {
	mu        sync.Mutex
	nextID    uint64
	chainTail []*unit // chainTail[c] = current tail unit of chain c
	stack     []*unit // execution stack; bottom is the implicit root unit
	lastByKey map[any]*unit
	lastSync  map[string]*unit
	cells     map[string]*cellState
	cellOrder []string // creation order, for deterministic iteration
	reports   []Report
	maxRep    int
	dedup     map[reportKey]bool
	cov       *coverage

	// Recycling state: every unit and cell created during a trial is
	// registered so Reset can return it to a freelist wholesale — an
	// arena-reused trial allocates no units after its first run. Recycled
	// units keep their vc backing arrays (join overwrites as it regrows).
	allUnits    []*unit
	freeUnits   []*unit
	freeCells   []*cellState
	predScratch []*unit // newUnit predecessor batch
}

// getUnit hands out a recycled (or new) unit and registers it for the next
// Reset. Caller holds t.mu; fields other than vc are zero, vc is length 0.
func (t *Tracker) getUnit() *unit {
	var u *unit
	if n := len(t.freeUnits); n > 0 {
		u = t.freeUnits[n-1]
		t.freeUnits[n-1] = nil
		t.freeUnits = t.freeUnits[:n-1]
	} else {
		u = &unit{}
	}
	t.allUnits = append(t.allUnits, u)
	return u
}

// New returns a Tracker with an implicit root unit on the stack: code that
// runs before the loop (application setup) attributes its registrations
// and accesses to the root, so sequential setup is totally ordered.
func New() *Tracker {
	t := &Tracker{
		lastByKey: make(map[any]*unit),
		lastSync:  make(map[string]*unit),
		cells:     make(map[string]*cellState),
		maxRep:    256,
		dedup:     make(map[reportKey]bool),
		cov:       newCoverage(),
	}
	root := &unit{id: 0, kind: "root", chain: 0, index: 1, vc: vclockT{1}}
	t.allUnits = append(t.allUnits, root)
	t.nextID = 1
	t.chainTail = []*unit{root}
	t.stack = []*unit{root}
	return t
}

// Reset re-arms the tracker for a new trial, equivalent to a fresh New():
// a new root unit and empty shadow state, coverage, and reports. Backing
// maps and slices are retained and cleared in place so a trial arena pays
// no per-trial allocation for the tracker. Safe on a nil receiver. The caller must guarantee no unit is executing (no outstanding
// Begin without its End) when Reset runs.
func (t *Tracker) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.lastByKey)
	clear(t.lastSync)
	for _, cs := range t.cells {
		clear(cs.hist)
		cs.hist = cs.hist[:0]
		clear(cs.spans)
		cs.spans = cs.spans[:0]
		t.freeCells = append(t.freeCells, cs)
	}
	clear(t.cells)
	t.cellOrder = t.cellOrder[:0]
	t.reports = t.reports[:0]
	clear(t.dedup)
	t.cov.reset()
	for i, u := range t.allUnits {
		u.id, u.kind, u.label = 0, "", ""
		u.chain, u.index = 0, 0
		u.vc = u.vc[:0]
		u.parent, u.tainted = nil, false
		t.freeUnits = append(t.freeUnits, u)
		t.allUnits[i] = nil
	}
	t.allUnits = t.allUnits[:0]
	root := t.getUnit()
	root.kind, root.index = "root", 1
	root.vc = append(root.vc, 1)
	t.nextID = 1
	t.chainTail = append(t.chainTail[:0], root)
	t.stack = append(t.stack[:0], root)
}

// Current returns a Ref to the executing unit (the innermost Begin, or the
// root when none), for capture at registration time.
func (t *Tracker) Current() Ref {
	if t == nil {
		return Ref{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Ref{u: t.stack[len(t.stack)-1]}
}

// Begin starts a unit for one callback execution. Its predecessors are the
// given refs plus, when this call nests inside another unit (a substrate
// draining several completions inside one loop callback), the enclosing
// unit. Pair with End.
func (t *Tracker) Begin(kind, label string, refs ...Ref) Token {
	if t == nil {
		return Token{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.newUnit(kind, label, refs, nil)
	t.stack = append(t.stack, u)
	return Token{u: u}
}

// BeginKeyed is Begin with an additional FIFO edge: the previous unit
// begun with the same key becomes a predecessor, and this unit replaces it
// as the key's latest. The event loop uses the *Source as the key, so
// per-connection deliveries form a causal line (the legality pass
// guarantees they execute in arrival order).
func (t *Tracker) BeginKeyed(kind, label string, key any, refs ...Ref) Token {
	if t == nil {
		return Token{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var extra *unit
	if key != nil {
		extra = t.lastByKey[key]
	}
	u := t.newUnit(kind, label, refs, extra)
	if key != nil {
		t.lastByKey[key] = u
	}
	t.stack = append(t.stack, u)
	return Token{u: u}
}

// isTaintLabel reports whether a unit labelled (or kinded) s is a harness
// detector, whose violations — and those of everything causally downstream
// — are suppressed.
func isTaintLabel(s string) bool { return s == "detector" || s == "watchdog" }

// newUnit allocates a unit whose predecessors are refs + extra + the stack
// top (the enclosing unit, always present: the root is never popped).
// Caller holds t.mu.
func (t *Tracker) newUnit(kind, label string, refs []Ref, extra *unit) *unit {
	u := t.getUnit()
	u.id, u.kind, u.label = t.nextID, kind, label
	t.nextID++
	preds := t.predScratch[:0]
	for _, r := range refs {
		if r.u != nil {
			preds = append(preds, r.u)
		}
	}
	if extra != nil {
		preds = append(preds, extra)
	}
	if len(t.stack) > 1 {
		// Nested inside another unit (a drain bracketing completions):
		// program order within that callback is a real HB edge.
		preds = append(preds, t.stack[len(t.stack)-1])
	} else if len(preds) == 0 {
		// No registration ref survived (external origin): fall back to the
		// root so nothing floats free of the clock lattice.
		preds = append(preds, t.stack[0])
	}
	for _, p := range preds {
		u.vc = u.vc.join(p.vc)
		if p.tainted {
			u.tainted = true
		}
		t.noteHBEdge(p.kind, kind)
	}
	if len(t.stack) == 1 {
		// Begin has not pushed yet: only the root below means this unit is a
		// top-level callback — one element of the interleaving itself.
		t.noteTopLevel(kind)
	}
	if isTaintLabel(label) || isTaintLabel(kind) {
		u.tainted = true
	}
	// Greedy chain decomposition: extend the first predecessor that is
	// still its chain's tail; otherwise open a new chain.
	u.parent = preds[0]
	u.chain = -1
	for _, p := range preds {
		if t.chainTail[p.chain] == p {
			u.chain = p.chain
			u.index = p.index + 1
			u.parent = p
			t.chainTail[p.chain] = u
			break
		}
	}
	if u.chain < 0 {
		u.chain = int32(len(t.chainTail))
		u.index = 1
		t.chainTail = append(t.chainTail, u)
	}
	for len(u.vc) <= int(u.chain) {
		u.vc = append(u.vc, 0)
	}
	u.vc[u.chain] = u.index
	clear(preds)
	t.predScratch = preds[:0]
	return u
}

// End closes the unit begun by the matching Begin/BeginKeyed. Tokens must
// be ended innermost-first; the root is never popped.
//
// When the unit was nested inside another (a drain processing several
// completions in one loop callback), its clock folds into the enclosing
// unit: sibling sub-units run sequentially within that one callback, so
// the later sibling is ordered after the earlier. The fold deliberately
// stops at the root — two top-level callbacks are NOT ordered by having
// run back to back; reorderable interleavings are the whole point.
func (t *Tracker) End(tok Token) {
	if t == nil || tok.u == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.stack) - 1; i >= 1; i-- {
		if t.stack[i] == tok.u {
			t.stack = t.stack[:i]
			if i-1 >= 1 {
				top := t.stack[i-1]
				top.vc = top.vc.join(tok.u.vc)
			}
			return
		}
	}
}

// Sync records a release-acquire on a commutative synchronization object —
// the MGS/FPS remaining-counter, an asyncutil.Gate or Barrier. Each caller
// happens-after every previous caller of the same key (atomic RMWs on one
// location are totally ordered), so the completion that observes the final
// count is ordered after all the others.
func (t *Tracker) Sync(key string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.stack[len(t.stack)-1]
	if prev := t.lastSync[key]; prev != nil && prev != cur {
		cur.vc = cur.vc.join(prev.vc)
		if prev.tainted {
			cur.tainted = true
		}
		t.noteHBEdge(prev.kind, cur.kind)
	}
	t.lastSync[key] = cur
}

// Units reports how many units have been created (root included).
func (t *Tracker) Units() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.nextID)
}

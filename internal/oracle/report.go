package oracle

// UnitInfo identifies one callback execution in a report.
type UnitInfo struct {
	ID    uint64 `json:"id"`
	Kind  string `json:"kind"`
	Label string `json:"label,omitempty"`
	Chain int32  `json:"chain"`
	Index uint32 `json:"index"`
}

func (u *unit) info() UnitInfo {
	return UnitInfo{ID: u.id, Kind: u.kind, Label: u.label, Chain: u.chain, Index: u.index}
}

// AccessInfo is one side of a violation: the unit plus the operation
// ("read", "write", "atomic", or "span" for an intended-atomic region).
type AccessInfo struct {
	UnitInfo
	Op string `json:"op"`
}

// Report is one detected violation. Kind is "ordering" (conflicting
// accesses unordered by happens-before) or "atomicity" (a conflicting
// access interleaves an intended-atomic or read...write span). The
// classification is a heuristic over the observed shape; the paper's
// AV/OV labels in Table 2 classify the root cause, which may differ.
type Report struct {
	Kind   string     `json:"kind"`
	Cell   string     `json:"cell"`
	First  AccessInfo `json:"first"`
	Second AccessInfo `json:"second"`
	// Trace is the second unit's primary-predecessor path, oldest first,
	// truncated: how the racing callback came to run.
	Trace []UnitInfo `json:"trace,omitempty"`
}

// traceDepth bounds the predecessor walk in a report.
const traceDepth = 5

func trace(u *unit) []UnitInfo {
	n := 0
	for p := u.parent; p != nil && n < traceDepth; p = p.parent {
		n++
	}
	out := make([]UnitInfo, n)
	for p, i := u.parent, n-1; p != nil && i >= 0; p, i = p.parent, i-1 {
		out[i] = p.info()
	}
	return out
}

// reportKey dedups violations: one report per (cell, racing callback
// kinds/labels, classification) regardless of how many unit pairs repeat
// the same shape.
type reportKey struct {
	kind, cell         string
	fKind, fLabel, fOp string
	sKind, sLabel, sOp string
}

// report appends r unless an equivalent one exists or the cap is reached.
// Caller holds t.mu.
func (t *Tracker) report(r Report) {
	if len(t.reports) >= t.maxRep {
		return
	}
	k := reportKey{
		kind: r.Kind, cell: r.Cell,
		fKind: r.First.Kind, fLabel: r.First.Label, fOp: r.First.Op,
		sKind: r.Second.Kind, sLabel: r.Second.Label, sOp: r.Second.Op,
	}
	if t.dedup[k] {
		return
	}
	t.dedup[k] = true
	t.reports = append(t.reports, r)
}

// Reports returns the violations detected so far, in detection order
// (deterministic under a virtual clock).
func (t *Tracker) Reports() []Report {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Report, len(t.reports))
	copy(out, t.reports)
	return out
}

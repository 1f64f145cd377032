package oracle

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzCoverageDigest drives a tracker with an arbitrary byte-derived
// sequence of Begin/End/Access/Sync operations and checks the coverage
// digest's contract (checkCoverageDigest).
func FuzzCoverageDigest(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte{0xff, 0x80, 0x41, 0x07, 0x99, 0x12, 0x55, 0xc3})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a})
	f.Fuzz(checkCoverageDigest)
}

// TestCoverageDigestManyKinds runs checkCoverageDigest on every fuzz kind
// begun once as a top-level unit registered by the root (so all of them
// race) that accesses a cell: more kind IDs, tuples and racing pairs than
// one 64-bit set word holds. It is a test rather than a fuzz seed because
// the fuzzer spends up to a minute minimizing each long interesting input.
func TestCoverageDigestManyKinds(t *testing.T) {
	var data []byte
	for i := 0; i < len(fuzzKinds)+8; i++ {
		// Unit i+1 is begun while units holds i+1 refs: arg i+1 picks the
		// root as its registration ref and fuzzKinds[i+1] as its kind.
		data = append(data, 0, byte(i+1), 2, byte(i*7), 1, 0)
	}
	checkCoverageDigest(t, data)
}

// fuzzKinds are the kinds driveCoverage begins units with. Their names make
// kind order and rendered-string order disagree ("net" < "net-read", but
// "net-read>x" < "net>x"), and the generated ones need more than 64 kind
// IDs.
var fuzzKinds = func() []string {
	kinds := []string{"timer", "net-read", "work", "work-done", "close", "immediate", "net", "t", "net-read-x"}
	for i := 0; i < 64; i++ {
		kinds = append(kinds, "k"+strconv.Itoa(i))
	}
	return kinds
}()

// checkCoverageDigest checks the coverage digest's contract on the
// operation sequence data encodes:
//
//   - replay determinism: the same operation sequence yields a deeply equal
//     CoverageDigest (the campaign's determinism gate relies on this);
//   - canonical form: sets sorted and duplicate-free, racing pairs ordered
//     within the pair, HBDigest fixed-width hex;
//   - the digest is insensitive to when it is read (snapshot purity);
//   - it equals refCoverage's, the string-keyed accumulator fed the same
//     events;
//   - a reused tracker — driven through another sequence with the kinds
//     interned in reverse order, then Reset — yields a fresh tracker's
//     digest, so no interned ID, tuple or pair leaks across Reset.
func checkCoverageDigest(t *testing.T, data []byte) {
	c1, ref := driveCoverage(New(), data, fuzzKinds)
	c2, _ := driveCoverage(New(), data, fuzzKinds)
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("replay produced different digests:\n%+v\n%+v", c1, c2)
	}
	if !reflect.DeepEqual(c1, ref) {
		t.Fatalf("digest differs from the string-keyed reference:\n got %+v\nwant %+v", c1, ref)
	}
	reversed := slices.Clone(fuzzKinds)
	slices.Reverse(reversed)
	reused := New()
	driveCoverage(reused, slices.Concat(data, []byte{0, 1, 0, 2, 1, 0, 0, 3, 2, 4}), reversed)
	reused.Reset()
	if c3, _ := driveCoverage(reused, data, fuzzKinds); !reflect.DeepEqual(c1, c3) {
		t.Fatalf("reused tracker's digest differs from a fresh one's:\n got %+v\nwant %+v", c3, c1)
	}
	if len(c1.HBDigest) != 16 {
		t.Fatalf("HBDigest %q not fixed-width", c1.HBDigest)
	}
	if _, err := strconv.ParseUint(c1.HBDigest, 16, 64); err != nil {
		t.Fatalf("HBDigest %q not hex: %v", c1.HBDigest, err)
	}
	checkSet := func(name string, s []string) {
		if !sort.StringsAreSorted(s) {
			t.Fatalf("%s not sorted: %v", name, s)
		}
		for i := 1; i < len(s); i++ {
			if s[i] == s[i-1] {
				t.Fatalf("%s has duplicate %q", name, s[i])
			}
		}
	}
	checkSet("RacingPairs", c1.RacingPairs)
	checkSet("Tuples", c1.Tuples)
	for _, p := range c1.RacingPairs {
		halves := strings.SplitN(p, "|", 2)
		if len(halves) != 2 || halves[0] > halves[1] {
			t.Fatalf("racing pair %q not canonical", p)
		}
	}
}

// driveCoverage runs the operation sequence data encodes on tr, two bytes
// per operation, and returns tr's coverage digest and the reference model's.
func driveCoverage(tr *Tracker, data []byte, kinds []string) (got, want CoverageDigest) {
	cells := []string{"db:a", "db:b", "fs:p"}
	m := newRefCoverage(tr)
	units := []Ref{tr.Current()}
	var open []Token
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i], data[i+1]
		switch op % 4 {
		case 0: // Begin, registered by some earlier unit
			ref := units[int(arg)%len(units)]
			tok := tr.Begin(kinds[int(arg)%len(kinds)], "", ref)
			m.begin(tok.u, ref)
			units = append(units, tok.Ref())
			open = append(open, tok)
		case 1: // End innermost
			if n := len(open); n > 0 {
				tr.End(open[n-1])
				m.end()
				open = open[:n-1]
			}
		case 2: // Access
			cell, kind := cells[int(arg)%len(cells)], AccessKind(arg%3)
			tr.Access(cell, kind)
			m.access(cell, kind)
		case 3: // Sync
			key := cells[int(arg)%len(cells)]
			tr.Sync(key)
			m.sync(key)
		}
	}
	mid := tr.Coverage()
	for _, tok := range open {
		tr.End(tok)
	}
	end := tr.Coverage()
	// Ending units adds no coverage: edges and tuples are recorded at
	// Begin, races at Access.
	if !reflect.DeepEqual(mid, end) {
		panic("Coverage changed across End calls with no new operations")
	}
	return end, m.digest()
}

// refCoverage is a reference model of the coverage digest: the string-keyed
// accumulator the interned one replaced, fed the events the tracker notes.
// It derives them by mirroring the tracker's rules — a unit's predecessors
// are its ref plus the enclosing unit when nested (the root when neither),
// a unit begun with only the root open is top-level, Sync orders each
// caller after the key's previous one, and an access races every earlier
// conflicting access in the cell's history that does not happen-before it.
// Happens-before itself is the tracker's, which FuzzVectorClock checks
// against reachability.
type refCoverage struct {
	pairs        map[string]bool
	tuples       map[[3]string]bool
	hbSeen       map[uint64]bool
	hbDigest     uint64
	prev1, prev2 string
	topCount     int

	stack    []*unit // open units, the root at the bottom
	lastSync map[string]*unit
	hist     map[string][]accessRec
}

func newRefCoverage(tr *Tracker) *refCoverage {
	return &refCoverage{
		pairs:    map[string]bool{},
		tuples:   map[[3]string]bool{},
		hbSeen:   map[uint64]bool{},
		stack:    []*unit{tr.Current().u},
		lastSync: map[string]*unit{},
		hist:     map[string][]accessRec{},
	}
}

func (m *refCoverage) edge(from, to string) {
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	if k := h.Sum64(); !m.hbSeen[k] {
		m.hbSeen[k] = true
		m.hbDigest ^= k
	}
}

func (m *refCoverage) begin(u *unit, ref Ref) {
	var preds []*unit
	if ref.u != nil {
		preds = append(preds, ref.u)
	}
	if len(m.stack) > 1 {
		preds = append(preds, m.stack[len(m.stack)-1])
	} else if len(preds) == 0 {
		preds = append(preds, m.stack[0])
	}
	for _, p := range preds {
		m.edge(p.kind, u.kind)
	}
	if len(m.stack) == 1 {
		if m.topCount >= 1 {
			m.tuples[[3]string{m.prev1, u.kind}] = true
		}
		if m.topCount >= 2 {
			m.tuples[[3]string{m.prev2, m.prev1, u.kind}] = true
		}
		m.prev2, m.prev1 = m.prev1, u.kind
		m.topCount++
	}
	m.stack = append(m.stack, u)
}

func (m *refCoverage) end() { m.stack = m.stack[:len(m.stack)-1] }

func (m *refCoverage) access(cell string, kind AccessKind) {
	u := m.stack[len(m.stack)-1]
	hist := m.hist[cell]
	if !u.tainted {
		for i := len(hist) - 1; i >= 0; i-- {
			rec := hist[i]
			if rec.u == u || rec.u.tainted || !conflicts(rec.kind, kind) || happensBefore(rec.u, u) {
				continue
			}
			a, b := rec.u.kind, u.kind
			if b < a {
				a, b = b, a
			}
			m.pairs[a+"|"+b] = true
		}
	}
	if len(hist) >= histCap {
		hist = hist[1:]
	}
	m.hist[cell] = append(hist, accessRec{u: u, kind: kind})
}

func (m *refCoverage) sync(key string) {
	cur := m.stack[len(m.stack)-1]
	if prev := m.lastSync[key]; prev != nil && prev != cur {
		m.edge(prev.kind, cur.kind)
	}
	m.lastSync[key] = cur
}

func (m *refCoverage) digest() CoverageDigest {
	d := CoverageDigest{HBDigest: fmt.Sprintf("%016x", m.hbDigest)}
	for p := range m.pairs {
		d.RacingPairs = append(d.RacingPairs, p)
	}
	sort.Strings(d.RacingPairs)
	for tu := range m.tuples {
		s := tu[0] + ">" + tu[1]
		if tu[2] != "" {
			s += ">" + tu[2]
		}
		d.Tuples = append(d.Tuples, s)
	}
	sort.Strings(d.Tuples)
	return d
}

// FuzzVectorClock drives the chain-decomposition vector-clock engine with
// an arbitrary DAG of units and checks it against ground truth:
//
//   - happensBefore must equal reachability in the registration DAG
//     (soundness and completeness of the chain/VC encoding);
//   - the HB order is antisymmetric and irreflexive;
//   - vector-clock join is commutative and monotone.
func FuzzVectorClock(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0xff, 0x00, 0x13, 0x27, 0x31, 0x45})
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxUnits = 48
		tr := New()
		// units[0] is the implicit root; every created unit names up to two
		// predecessors among the existing ones (byte-driven), or none —
		// which the tracker resolves to the root.
		units := []*unit{tr.stack[0]}
		reach := make([]map[int]bool, 1)
		reach[0] = map[int]bool{}

		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		for len(units) < maxUnits {
			b, ok := next()
			if !ok {
				break
			}
			var refs []Ref
			preds := map[int]bool{}
			p1 := int(b) % len(units)
			if b&0x80 == 0 {
				refs = append(refs, Ref{u: units[p1]})
				preds[p1] = true
			}
			if b2, ok2 := next(); ok2 && b2&0x40 != 0 {
				p2 := int(b2) % len(units)
				refs = append(refs, Ref{u: units[p2]})
				preds[p2] = true
			}
			if len(preds) == 0 {
				preds[0] = true // tracker falls back to the enclosing root
			}
			tok := tr.Begin("u", "", refs...)
			u := tok.u
			tr.End(tok)
			r := map[int]bool{}
			for p := range preds {
				r[p] = true
				for anc := range reach[p] {
					r[anc] = true
				}
			}
			units = append(units, u)
			reach = append(reach, r)
		}

		for i, a := range units {
			for j, b := range units {
				got := happensBefore(a, b)
				want := i != j && reach[j][i]
				if got != want {
					t.Fatalf("happensBefore(u%d,u%d) = %v, reachability says %v", i, j, got, want)
				}
				if got && happensBefore(b, a) {
					t.Fatalf("antisymmetry violated for u%d,u%d", i, j)
				}
			}
			if happensBefore(a, a) {
				t.Fatalf("irreflexivity violated for u%d", i)
			}
		}

		// Join axioms on the collected clocks.
		clone := func(v vclockT) vclockT { return append(vclockT(nil), v...) }
		eq := func(a, b vclockT) bool {
			n := len(a)
			if len(b) > n {
				n = len(b)
			}
			for i := 0; i < n; i++ {
				if a.at(int32(i)) != b.at(int32(i)) {
					return false
				}
			}
			return true
		}
		for i := 0; i < len(units) && i < 8; i++ {
			for j := 0; j < len(units) && j < 8; j++ {
				a, b := units[i].vc, units[j].vc
				ab := clone(a).join(b)
				ba := clone(b).join(a)
				if !eq(ab, ba) {
					t.Fatalf("join not commutative for u%d,u%d: %v vs %v", i, j, ab, ba)
				}
				// Monotonicity: the join dominates both operands.
				for c := 0; c < len(ab); c++ {
					if ab.at(int32(c)) < a.at(int32(c)) || ab.at(int32(c)) < b.at(int32(c)) {
						t.Fatalf("join not monotone at chain %d", c)
					}
				}
			}
		}
	})
}

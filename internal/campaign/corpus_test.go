package campaign

import (
	"fmt"
	"testing"

	"nodefz/internal/oracle"
	"nodefz/internal/sched"
)

func TestCorpusFirstAdmissionIsMaximallyNovel(t *testing.T) {
	c := NewCorpus(0.5, 4, 0)
	adm := c.AdmitWithCoverage([]string{"a", "b"}, nil)
	if !adm.Admitted || adm.Novelty != 1 || adm.Duplicate {
		t.Fatalf("first admission: %+v", adm)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCorpusThresholdBoundary(t *testing.T) {
	c := NewCorpus(0.5, 4, 0)
	c.AdmitWithCoverage([]string{"a", "b"}, nil)

	// NLD([a b],[a c]) = 1/2 = exactly the threshold: must be rejected
	// (admission requires strictly greater).
	adm := c.AdmitWithCoverage([]string{"a", "c"}, nil)
	if adm.Admitted {
		t.Fatalf("distance exactly at threshold must be rejected: %+v", adm)
	}
	if adm.Novelty != 0.5 {
		t.Fatalf("Novelty = %v, want 0.5", adm.Novelty)
	}

	// NLD([a b],[c d]) = 1 > 0.5: admitted.
	adm = c.AdmitWithCoverage([]string{"c", "d"}, nil)
	if !adm.Admitted || adm.Novelty != 1 {
		t.Fatalf("distance above threshold must be admitted: %+v", adm)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCorpusDuplicateRejection(t *testing.T) {
	c := NewCorpus(0.5, 4, 0)
	c.AdmitWithCoverage([]string{"a", "b", "c"}, nil)
	adm := c.AdmitWithCoverage([]string{"a", "b", "c"}, nil)
	if adm.Admitted || !adm.Duplicate || adm.Novelty != 0 {
		t.Fatalf("duplicate admission: %+v", adm)
	}
	// A schedule rejected by threshold is also remembered: re-offering it is
	// a duplicate, not a second novelty computation.
	rej := c.AdmitWithCoverage([]string{"a", "b", "x"}, nil)
	if rej.Admitted {
		t.Fatalf("expected threshold rejection: %+v", rej)
	}
	again := c.AdmitWithCoverage([]string{"a", "b", "x"}, nil)
	if !again.Duplicate {
		t.Fatalf("re-offered rejected schedule should be a duplicate: %+v", again)
	}
}

func TestCorpusCapacityEvictsNearestNeighbour(t *testing.T) {
	c := NewCorpus(0.2, 2, 0)
	a := []string{"a", "a", "a", "a"}
	b := []string{"b", "b", "b", "b"}
	c.AdmitWithCoverage(a, nil)
	c.AdmitWithCoverage(b, nil)

	// NLD to b = 1/4 > 0.2, NLD to a = 1: nearest neighbour is b, which
	// must be the one evicted.
	incoming := []string{"b", "b", "b", "c"}
	adm := c.AdmitWithCoverage(incoming, nil)
	if !adm.Admitted || !adm.Evicted {
		t.Fatalf("expected admission with eviction: %+v", adm)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, capacity exceeded or over-evicted", c.Len())
	}
	want := map[string]bool{
		sched.DigestString(sched.Digest(a)):        true,
		sched.DigestString(sched.Digest(incoming)): true,
	}
	for _, d := range c.Digests() {
		if !want[d] {
			t.Fatalf("unexpected member digest %s (b should have been evicted)", d)
		}
	}
	// The evicted schedule's digest stays in the seen-set: re-offering it is
	// still a duplicate, so corpora never thrash on a repeating schedule.
	if adm := c.AdmitWithCoverage(b, nil); !adm.Duplicate {
		t.Fatalf("evicted schedule re-offered should be duplicate: %+v", adm)
	}
}

// TestCorpusAdmitReplays: Admit, the journal-replay path, re-enacts an
// admission the live run decided. It admits a schedule below the novelty
// threshold (the live offer may have entered on coverage), still rejects a
// duplicate, and at capacity still evicts the newcomer's nearest neighbour.
func TestCorpusAdmitReplays(t *testing.T) {
	c := NewCorpus(0.5, 2, 0)
	first := []string{"a", "b", "c", "d"}
	low := []string{"a", "b", "c", "e"} // NLD 0.25 to first
	c.Admit(first)
	if adm := c.Admit(low); !adm.Admitted || adm.Novelty != 0.25 || adm.Evicted {
		t.Fatalf("below-threshold replay must be admitted: %+v", adm)
	}
	if adm := c.Admit(low); adm.Admitted || !adm.Duplicate {
		t.Fatalf("duplicate replay must be rejected: %+v", adm)
	}
	// NLD 0.25 to low, 0.5 to first: low is the nearest and is evicted.
	incoming := []string{"a", "b", "x", "e"}
	if adm := c.Admit(incoming); !adm.Admitted || !adm.Evicted {
		t.Fatalf("replay at capacity must admit and evict: %+v", adm)
	}
	want := map[string]bool{
		sched.DigestString(sched.Digest(first)):    true,
		sched.DigestString(sched.Digest(incoming)): true,
	}
	if d := c.Digests(); len(d) != 2 || !want[d[0]] || !want[d[1]] {
		t.Fatalf("members %v, want first and incoming (low evicted)", d)
	}
}

func TestCorpusTruncationBoundsComparison(t *testing.T) {
	c := NewCorpus(0.1, 4, 3)
	long1 := []string{"a", "b", "c", "d", "e"}
	long2 := []string{"a", "b", "c", "x", "y"} // same truncated prefix
	c.AdmitWithCoverage(long1, nil)
	adm := c.AdmitWithCoverage(long2, nil)
	if !adm.Duplicate {
		t.Fatalf("schedules equal after truncation must be duplicates: %+v", adm)
	}
	for _, s := range c.Schedules() {
		if len(s) > 3 {
			t.Fatalf("stored schedule longer than truncate: %v", s)
		}
	}
}

func TestCorpusMarkSeen(t *testing.T) {
	c := NewCorpus(0.1, 4, 0)
	s := []string{"a", "b"}
	c.MarkSeen(sched.DigestString(sched.Digest(s)))
	if adm := c.AdmitWithCoverage(s, nil); !adm.Duplicate {
		t.Fatalf("marked digest should be duplicate: %+v", adm)
	}
	c.MarkSeen("not-hex") // ignored, must not panic
	if c.Len() != 0 {
		t.Fatalf("MarkSeen must not admit: Len = %d", c.Len())
	}
}

// TestCorpusSeenWindowBounded: duplicate detection must not grow one map
// entry per trial forever — a million-trial campaign would leak the corpus
// into gigabytes. The two-generation rotation keeps memory at ~2×window
// while staying exact over at least the last window offers.
func TestCorpusSeenWindowBounded(t *testing.T) {
	c := NewCorpus(0.9, 4, 0) // high threshold: almost nothing admitted
	c.seenWindow = 100
	distinct := func(i int) []string {
		return []string{"a", fmt.Sprintf("k%d", i)}
	}
	for i := 0; i < 1000; i++ {
		c.AdmitWithCoverage(distinct(i), nil)
		// Steady state: both generations plus pinned members never exceed
		// 2×window + capacity.
		if got, limit := c.SeenSize(), 2*c.seenWindow+c.capacity; got > limit {
			t.Fatalf("offer %d: seen-set size %d exceeds bound %d", i, got, limit)
		}
	}
	// Exactness over the window: a schedule offered within the last
	// `window` offers is still a duplicate.
	if adm := c.AdmitWithCoverage(distinct(999), nil); !adm.Duplicate {
		t.Fatalf("recent offer not detected as duplicate: %+v", adm)
	}
	// Members never age out of duplicate detection, no matter how many
	// offers pass: the first offer was admitted (first is always novel).
	if adm := c.AdmitWithCoverage(distinct(0), nil); !adm.Duplicate {
		t.Fatalf("corpus member aged out of duplicate detection: %+v", adm)
	}
}

// TestCorpusCoverageAdmission: a schedule below the novelty threshold must
// still be admitted when its trial contributed a never-seen racing pair or
// HB-edge-set digest — interleaving coverage, not schedule text, is the
// greybox signal.
func TestCorpusCoverageAdmission(t *testing.T) {
	c := NewCorpus(0.5, 8, 0)
	c.AdmitWithCoverage([]string{"a", "b", "c", "d"}, nil)

	// One edit in four: NLD 0.25 <= 0.5, rejected on the novelty path.
	lowNovelty := []string{"a", "b", "c", "e"}
	cov := &oracle.CoverageDigest{
		RacingPairs: []string{"timer|work-done"},
		HBDigest:    "00000000deadbeef",
		Tuples:      []string{"timer>close"},
	}
	adm := c.AdmitWithCoverage(lowNovelty, cov)
	if !adm.Admitted || !adm.CoverageAdmitted {
		t.Fatalf("new racing pair must force admission: %+v", adm)
	}
	if len(adm.NewPairs) != 1 || !adm.NewHB || len(adm.NewTuples) != 1 {
		t.Fatalf("new-coverage accounting wrong: %+v", adm)
	}
	// 3 new items of 3 offered (pairs + tuples + the digest): fraction 1.
	if adm.CoverageNew != 1 {
		t.Fatalf("CoverageNew = %v, want 1", adm.CoverageNew)
	}

	// Same coverage again on another low-novelty schedule: nothing new, no
	// coverage admission, and the fraction is 0.
	adm = c.AdmitWithCoverage([]string{"a", "b", "c", "f"}, cov)
	if adm.Admitted || adm.CoverageAdmitted || adm.CoverageNew != 0 {
		t.Fatalf("replayed coverage must not re-admit or re-reward: %+v", adm)
	}

	// A fresh HB digest alone (no new pairs) also admits.
	cov2 := &oracle.CoverageDigest{HBDigest: "00000000cafe0000"}
	adm = c.AdmitWithCoverage([]string{"a", "b", "c", "g"}, cov2)
	if !adm.Admitted || !adm.CoverageAdmitted || !adm.NewHB {
		t.Fatalf("new HB digest must force admission: %+v", adm)
	}

	// New tuples alone do NOT admit (they only feed the reward fraction).
	cov3 := &oracle.CoverageDigest{HBDigest: "00000000cafe0000", Tuples: []string{"x>y"}}
	adm = c.AdmitWithCoverage([]string{"a", "b", "c", "h"}, cov3)
	if adm.Admitted || adm.CoverageAdmitted {
		t.Fatalf("tuples alone must not admit: %+v", adm)
	}
	if adm.CoverageNew == 0 {
		t.Fatalf("new tuple must still earn reward fraction: %+v", adm)
	}

	// nil coverage degenerates to plain novelty admission.
	adm = c.AdmitWithCoverage([]string{"p", "q", "r", "s"}, nil)
	if !adm.Admitted || adm.CoverageAdmitted || adm.CoverageNew != 0 {
		t.Fatalf("nil-coverage admission: %+v", adm)
	}
}

// TestCorpusSeedCoverage: resume replays journaled coverage records through
// SeedCoverage; a re-discovered interleaving afterwards is old news.
func TestCorpusSeedCoverage(t *testing.T) {
	c := NewCorpus(0.5, 8, 0)
	c.SeedCoverage([]string{"timer|close"}, "0000000000000abc", []string{"a>b"})
	pairs, digests, tuples := c.CoverageStats()
	if pairs != 1 || digests != 1 || tuples != 1 {
		t.Fatalf("CoverageStats after seed = %d/%d/%d, want 1/1/1", pairs, digests, tuples)
	}
	c.AdmitWithCoverage([]string{"a", "b", "c", "d"}, nil)
	cov := &oracle.CoverageDigest{
		RacingPairs: []string{"timer|close"},
		HBDigest:    "0000000000000abc",
		Tuples:      []string{"a>b"},
	}
	adm := c.AdmitWithCoverage([]string{"a", "b", "c", "e"}, cov)
	if adm.Admitted || adm.CoverageAdmitted || adm.CoverageNew != 0 {
		t.Fatalf("seeded coverage re-admitted or re-rewarded: %+v", adm)
	}
}

// TestCorpusNearestMatchesReference: the interned, bit-parallel, length-
// pruned nearest-neighbour scan must agree exactly with a straightforward
// sched.NormalizedLevenshtein loop over the same schedules — novelty feeds
// the bandit's reward, so a drifting fast path would silently bias the
// campaign. Lengths run from 0 to the default truncation of 256, so
// candidates and members span one to four 64-bit words.
func TestCorpusNearestMatchesReference(t *testing.T) {
	kinds := []string{"timer", "net-read", "work", "work-done", "close", "imm"}
	mk := func(seed, n int) []string {
		s := make([]string, n)
		x := uint64(seed)*2654435761 + 12345
		for i := range s {
			x = x*6364136223846793005 + 1442695040888963407
			s[i] = kinds[x%uint64(len(kinds))]
		}
		return s
	}

	c := NewCorpus(0, 64, 0) // threshold 0: admit everything non-duplicate
	var pool [][]string
	for i := 0; i < 40; i++ {
		cand := mk(i, i*DefaultScheduleTruncate/39)
		wantD := 1.0
		for j, p := range pool {
			if d := sched.NormalizedLevenshtein(cand, p); j == 0 || d < wantD {
				wantD = d
			}
		}

		c.mu.Lock()
		c.candScratch = sched.InternKinds(c.intern, cand, c.candScratch[:0])
		gotD, gotI := c.nearest(c.candScratch)
		c.mu.Unlock()

		if gotD != wantD {
			t.Fatalf("offer %d: nearest distance %v, reference %v", i, gotD, wantD)
		}
		if len(pool) > 0 && (gotI < 0 || sched.NormalizedLevenshtein(cand, pool[gotI]) != wantD) {
			t.Fatalf("offer %d: nearest index %d does not achieve reference distance %v", i, gotI, wantD)
		}

		if adm := c.AdmitWithCoverage(cand, nil); !adm.Admitted {
			t.Fatalf("offer %d: not admitted at threshold 0 (novelty %v)", i, adm.Novelty)
		}
		pool = append(pool, cand)
	}
}

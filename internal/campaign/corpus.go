package campaign

import (
	"strconv"
	"sync"

	"nodefz/internal/oracle"
	"nodefz/internal/sched"
)

// Corpus is the campaign's schedule corpus: a bounded set of type schedules
// (§5.3) retained because they were *novel* — far, in normalized Levenshtein
// distance, from everything already in the corpus. It is the novelty-search
// analogue of a coverage map: a trial whose schedule lands near an existing
// corpus member taught us little; one that lands far away opened new
// schedule space, and its distance feeds the bandit's reward.
//
// Admission rules:
//
//   - exact duplicates (by digest) of a recently offered schedule or a
//     current member are rejected outright, before the Levenshtein pass.
//     Detection is windowed (two rotating generations of digests, see
//     DefaultSeenWindow) so a million-trial campaign holds a bounded digest
//     set rather than one entry per trial forever; member digests are
//     pinned and never age out;
//   - a schedule is admitted when its distance to its nearest corpus
//     neighbour strictly exceeds the novelty threshold (distance exactly at
//     the threshold is rejected), OR — via AdmitWithCoverage — when its
//     trial contributed a never-seen racing pair or HB-edge-set digest to
//     the campaign-global interleaving-coverage map;
//   - at capacity, admitting evicts the new schedule's nearest neighbour —
//     the member it is most redundant with — keeping the corpus spread out.
//
// Admission is the campaign's hottest non-trial path: every trial that is
// not a duplicate pays one nearest-neighbour scan over every member. Three
// things keep it cheap:
//
//   - type strings are interned to dense int IDs once per schedule, so the
//     scan works on ints instead of hashing/comparing strings;
//   - the candidate is compiled once per offer into a bit-vector
//     sched.Pattern, and each member is scanned as its text in
//     O(n·⌈m/64⌉) word operations — at most 4 words per symbol at the
//     default truncation of 256 — with the exact Levenshtein distance as
//     the result;
//   - a member whose length differs from the candidate's by more than the
//     best distance found so far cannot be nearer — the length gap is a
//     Levenshtein lower bound — and is skipped without a scan.
//
// The pattern's storage and the interned candidate are per-Corpus scratch,
// touched only under c.mu, and an evicted member's storage is reused for
// its replacement, so an admission at capacity allocates nothing once the
// scratch has grown.
//
// Corpus is safe for concurrent use by the campaign's trial workers.
type Corpus struct {
	threshold float64
	capacity  int
	truncate  int

	mu      sync.Mutex
	entries []corpusEntry

	// Duplicate detection is windowed, not eternal: seenCur and seenPrev
	// are two generations of offered-schedule digests. When seenCur fills
	// its window it becomes seenPrev and a fresh generation starts, so
	// memory is bounded at ~2×seenWindow entries no matter how many
	// trials the campaign runs, and detection stays exact over at least
	// the last seenWindow offers. members pins the digests of current
	// corpus members so a member never ages out of duplicate detection.
	seenCur, seenPrev map[uint64]bool
	members           map[uint64]bool
	seenWindow        int

	// Coverage is the campaign-global interleaving-coverage map: every
	// racing pair, HB-edge-set digest, and adjacency tuple any trial has
	// ever produced. A trial contributing a never-seen racing pair or HB
	// digest is admitted regardless of schedule novelty — interleaving
	// coverage is the greybox signal; novelty is only its proxy.
	covPairs   map[string]bool
	covDigests map[string]bool
	covTuples  map[string]bool

	// intern maps each distinct callback-type string to a dense ID. The
	// table only grows (a handful of kinds exist), never per-admission.
	intern map[string]int32
	// candScratch holds the interned candidate and pat its compiled form,
	// both reused by every Admit call; guarded by mu.
	candScratch []int32
	pat         sched.Pattern
}

type corpusEntry struct {
	digest uint64
	types  []string
	ids    []int32 // types interned through Corpus.intern
}

// Admission reports the outcome of one Corpus.Admit call.
type Admission struct {
	// Novelty is the normalized Levenshtein distance to the nearest corpus
	// member at offer time (1 for the first offer, 0 for exact duplicates).
	Novelty float64
	// Admitted is true when the schedule entered the corpus.
	Admitted bool
	// Duplicate is true when the schedule's digest had been offered before
	// (within the duplicate-detection window or as a current member).
	Duplicate bool
	// Evicted is true when admission displaced an existing member.
	Evicted bool

	// NewPairs / NewTuples are the trial's coverage items never seen
	// campaign-wide before this offer; NewHB is true when the trial's
	// HB-edge-set digest was never seen. Populated only by
	// AdmitWithCoverage.
	NewPairs  []string
	NewTuples []string
	NewHB     bool
	// CoverageNew is the fraction of the trial's coverage items that were
	// new (in [0, 1]); the bandit's new-coverage reward term.
	CoverageNew float64
	// CoverageAdmitted is true when the schedule entered the corpus on the
	// coverage path (new racing pair or HB digest) rather than — or in
	// addition to — the novelty path.
	CoverageAdmitted bool
}

// DefaultSeenWindow is the per-generation size of the duplicate-detection
// window: detection is exact over at least the most recent DefaultSeenWindow
// offers and memory is bounded at ~2× that many digests.
const DefaultSeenWindow = 1 << 16

// NewCorpus builds an empty corpus. threshold is the minimum nearest-
// neighbour distance for admission (strictly greater-than); capacity bounds
// the member count (<= 0 means DefaultCorpusCapacity); truncate bounds the
// stored length of each schedule (<= 0 means DefaultScheduleTruncate) —
// both the digest and the distance are computed over the truncated prefix,
// bounding each member's scan at O(n·⌈n/64⌉) word operations for a
// truncation of n.
func NewCorpus(threshold float64, capacity, truncate int) *Corpus {
	if capacity <= 0 {
		capacity = DefaultCorpusCapacity
	}
	if truncate <= 0 {
		truncate = DefaultScheduleTruncate
	}
	return &Corpus{
		threshold:  threshold,
		capacity:   capacity,
		truncate:   truncate,
		seenCur:    make(map[uint64]bool),
		members:    make(map[uint64]bool),
		seenWindow: DefaultSeenWindow,
		covPairs:   make(map[string]bool),
		covDigests: make(map[string]bool),
		covTuples:  make(map[string]bool),
		intern:     make(map[string]int32),
	}
}

// sawLocked reports whether digest d counts as a duplicate. Caller holds
// c.mu.
func (c *Corpus) sawLocked(d uint64) bool {
	return c.members[d] || c.seenCur[d] || c.seenPrev[d]
}

// markSeenLocked records an offered digest, rotating generations when the
// current one fills its window. Caller holds c.mu.
func (c *Corpus) markSeenLocked(d uint64) {
	if len(c.seenCur) >= c.seenWindow {
		c.seenPrev = c.seenCur
		c.seenCur = make(map[uint64]bool)
	}
	c.seenCur[d] = true
}

// Len reports the current member count.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// nearest returns the minimum normalized Levenshtein distance from cand to
// any member and that member's index (1, -1 on an empty corpus). It
// compiles cand into the corpus's Pattern and scans each member as the
// text, so every distance is exact; members are visited in entry order and
// only a strictly nearer one replaces the running best. Caller holds c.mu,
// and cand's IDs come from c.intern.
func (c *Corpus) nearest(cand []int32) (float64, int) {
	// cand was interned last, so the table covers every member's IDs too.
	c.pat.Compile(cand, len(c.intern))
	best, idx := 1.0, -1
	for i := range c.entries {
		ids := c.entries[i].ids
		n := len(cand)
		if len(ids) > n {
			n = len(ids)
		}
		if n == 0 {
			// Two empty schedules: distance 0, and no later member beats it.
			return 0, i
		}
		// |len(a)-len(b)| lower-bounds the edit distance: a longer-by-k
		// schedule needs at least k insertions. If even that floor cannot
		// strictly improve on best, the scan cannot either.
		diff := len(cand) - len(ids)
		if diff < 0 {
			diff = -diff
		}
		if idx != -1 && float64(diff)/float64(n) >= best {
			continue
		}
		dn := float64(c.pat.Distance(ids)) / float64(n)
		if idx == -1 || dn < best {
			best, idx = dn, i
		}
	}
	if idx == -1 {
		return 1, -1
	}
	return best, idx
}

// Admit offers a type schedule to the corpus and reports what happened. The
// offered slice is copied when retained; callers may reuse it.
func (c *Corpus) Admit(types []string) Admission {
	return c.AdmitWithCoverage(types, nil)
}

// AdmitWithCoverage is Admit plus interleaving-coverage feedback: the
// trial's CoverageDigest is folded into the campaign-global coverage map,
// and a schedule that contributes a never-seen racing pair or HB-edge-set
// digest is admitted even when its Levenshtein novelty falls below the
// threshold. cov == nil degenerates to plain novelty admission.
//
// Coverage is folded for every offer — including exact duplicates, whose
// interleaving can still differ from the earlier run of the same type
// schedule — but a duplicate is never (re-)admitted: the corpus stores only
// the type schedule, so admitting it again would add nothing.
func (c *Corpus) AdmitWithCoverage(types []string, cov *oracle.CoverageDigest) Admission {
	types = sched.Truncate(types, c.truncate)
	d := sched.Digest(types)

	c.mu.Lock()
	defer c.mu.Unlock()
	var adm Admission
	if cov != nil {
		c.foldCoverageLocked(cov, &adm)
	}
	if c.sawLocked(d) {
		adm.Duplicate = true
		return adm
	}
	c.markSeenLocked(d)

	c.candScratch = sched.InternKinds(c.intern, types, c.candScratch[:0])
	novelty, nearest := c.nearest(c.candScratch)
	adm.Novelty = novelty
	adm.CoverageAdmitted = len(adm.NewPairs) > 0 || adm.NewHB
	if len(c.entries) > 0 && novelty <= c.threshold && !adm.CoverageAdmitted {
		return adm
	}
	var e corpusEntry
	if len(c.entries) >= c.capacity {
		// Displace the member the newcomer is most redundant with, and
		// keep its storage for the newcomer: no copy of it escapes.
		e = c.entries[nearest]
		delete(c.members, e.digest)
		c.entries = append(c.entries[:nearest], c.entries[nearest+1:]...)
		adm.Evicted = true
	}
	e.digest = d
	e.types = append(e.types[:0], types...)
	e.ids = append(e.ids[:0], c.candScratch...)
	c.entries = append(c.entries, e)
	c.members[d] = true
	adm.Admitted = true
	return adm
}

// foldCoverageLocked merges a trial's coverage digest into the global map
// and fills the admission's new-coverage fields. Caller holds c.mu.
func (c *Corpus) foldCoverageLocked(cov *oracle.CoverageDigest, adm *Admission) {
	for _, p := range cov.RacingPairs {
		if !c.covPairs[p] {
			c.covPairs[p] = true
			adm.NewPairs = append(adm.NewPairs, p)
		}
	}
	for _, tu := range cov.Tuples {
		if !c.covTuples[tu] {
			c.covTuples[tu] = true
			adm.NewTuples = append(adm.NewTuples, tu)
		}
	}
	if cov.HBDigest != "" && !c.covDigests[cov.HBDigest] {
		c.covDigests[cov.HBDigest] = true
		adm.NewHB = true
	}
	newItems := len(adm.NewPairs) + len(adm.NewTuples)
	if adm.NewHB {
		newItems++
	}
	adm.CoverageNew = float64(newItems) / float64(cov.Items())
}

// SeedCoverage pre-marks coverage items as already seen, without admitting
// anything — the resume path replays journaled "coverage" records through
// it so a resumed campaign neither re-rewards nor re-admits interleavings a
// previous run already discovered. An empty hbDigest means the record
// carried none.
func (c *Corpus) SeedCoverage(pairs []string, hbDigest string, tuples []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range pairs {
		c.covPairs[p] = true
	}
	for _, tu := range tuples {
		c.covTuples[tu] = true
	}
	if hbDigest != "" {
		c.covDigests[hbDigest] = true
	}
}

// CoverageStats reports the sizes of the global coverage map: distinct
// racing pairs, HB-edge-set digests, and adjacency tuples seen so far.
func (c *Corpus) CoverageStats() (pairs, digests, tuples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.covPairs), len(c.covDigests), len(c.covTuples)
}

// SeenSize reports how many digests duplicate detection currently holds
// (both generations plus pinned members); tests assert its steady state.
func (c *Corpus) SeenSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.seenCur) + len(c.seenPrev) + len(c.members)
}

// Schedules returns copies of the member schedules in admission order —
// what the checkpoint journal needs to rebuild the corpus on resume.
func (c *Corpus) Schedules() [][]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]string, len(c.entries))
	for i, e := range c.entries {
		out[i] = append([]string(nil), e.types...)
	}
	return out
}

// MarkSeen records a hex digest (as journaled by a previous run) as already
// offered, without admitting anything. Resume uses it so schedules that were
// offered and rejected before a kill stay duplicates afterwards. Unparsable
// digests are ignored.
func (c *Corpus) MarkSeen(digestHex string) {
	d, err := strconv.ParseUint(digestHex, 16, 64)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.markSeenLocked(d)
	c.mu.Unlock()
}

// Digests returns the member digests in admission order, hex-encoded.
func (c *Corpus) Digests() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.entries))
	for i, e := range c.entries {
		out[i] = sched.DigestString(e.digest)
	}
	return out
}

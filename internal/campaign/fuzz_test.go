package campaign

import (
	"reflect"
	"sort"
	"testing"
)

// schedulesFromBytes decodes fuzz input into a list of type schedules: 0xFF
// separates schedules, every other byte maps onto a tiny kind alphabet so
// near-duplicate schedules (the interesting admission cases) are common.
func schedulesFromBytes(data []byte) [][]string {
	kinds := []string{"timer", "net-read", "work-done", "close"}
	var out [][]string
	cur := []string{}
	flush := func() {
		if len(out) < 32 { // bound the Levenshtein work per fuzz iteration
			out = append(out, cur)
		}
		cur = []string{}
	}
	for _, b := range data {
		if b == 0xFF {
			flush()
			continue
		}
		if len(cur) < 48 {
			cur = append(cur, kinds[int(b)%len(kinds)])
		}
	}
	flush()
	return out
}

func sortedDigests(c *Corpus) []string {
	d := c.Digests()
	sort.Strings(d)
	return d
}

// FuzzCorpusAdmit checks the corpus admission invariants the campaign
// relies on: the corpus never exceeds its capacity, duplicate schedules
// never mutate state (so admission is order-insensitive for duplicates),
// and a member re-offered is always reported as a duplicate.
func FuzzCorpusAdmit(f *testing.F) {
	f.Add([]byte("abc\xffabd\xffabc\xffzzzz"), uint8(3), uint8(20))
	f.Add([]byte("\xff\xff"), uint8(1), uint8(0))
	f.Add([]byte("aaaaaaa\xffaaaaaab\xffaaaaaac\xffbbbbbbb"), uint8(2), uint8(50))
	f.Fuzz(func(t *testing.T, data []byte, cap8, thr8 uint8) {
		capacity := int(cap8%6) + 1
		threshold := float64(thr8%101) / 100
		schedules := schedulesFromBytes(data)

		// Baseline: admit the sequence once, checking the capacity bound
		// after every single admission.
		base := NewCorpus(threshold, capacity, 0)
		for _, s := range schedules {
			adm := base.AdmitWithCoverage(s, nil)
			if base.Len() > capacity {
				t.Fatalf("capacity %d exceeded: len=%d", capacity, base.Len())
			}
			if adm.Admitted && adm.Duplicate {
				t.Fatalf("admission reported both Admitted and Duplicate")
			}
			if adm.Novelty < 0 || adm.Novelty > 1 {
				t.Fatalf("novelty out of range: %v", adm.Novelty)
			}
		}

		// Duplicates interleaved immediately after each offer...
		interleaved := NewCorpus(threshold, capacity, 0)
		for _, s := range schedules {
			interleaved.AdmitWithCoverage(s, nil)
			if adm := interleaved.AdmitWithCoverage(s, nil); adm.Admitted || !adm.Duplicate {
				t.Fatalf("immediate duplicate mutated corpus: %+v", adm)
			}
		}
		// ...or appended as a full second pass: either way the corpus must
		// end up exactly where the duplicate-free sequence put it.
		appended := NewCorpus(threshold, capacity, 0)
		for _, s := range schedules {
			appended.AdmitWithCoverage(s, nil)
		}
		for _, s := range schedules {
			appended.AdmitWithCoverage(s, nil)
		}
		want := sortedDigests(base)
		if got := sortedDigests(interleaved); !reflect.DeepEqual(got, want) {
			t.Fatalf("interleaved duplicates changed the corpus:\n got %v\nwant %v", got, want)
		}
		if got := sortedDigests(appended); !reflect.DeepEqual(got, want) {
			t.Fatalf("appended duplicates changed the corpus:\n got %v\nwant %v", got, want)
		}

		// Every current member, re-offered, is a duplicate and changes
		// nothing.
		for _, s := range base.Schedules() {
			if adm := base.AdmitWithCoverage(s, nil); adm.Admitted || !adm.Duplicate {
				t.Fatalf("re-offered member not reported duplicate: %+v", adm)
			}
		}
		if got := sortedDigests(base); !reflect.DeepEqual(got, want) {
			t.Fatalf("re-offering members mutated the corpus")
		}
	})
}

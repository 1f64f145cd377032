package bugs

import (
	"testing"
	"time"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/simfs"
)

// pageRaceTrial runs the §4.2.3 worker-pool race: two concurrent,
// overlapping, multi-page asynchronous writes to one file. With real
// worker concurrency the file can end up with pages from either write;
// with the fuzzer's serialized callbacks (§4.3.3) the writes cannot
// overlap at all. It returns whether the final file mixes both writers.
func pageRaceTrial(sched eventloop.Scheduler, seed int64) (mixed bool) {
	l := eventloop.New(eventloop.Options{Scheduler: sched})
	fs := simfs.NewPageSize(64)
	fs.SetPageWriteDelay(300 * time.Microsecond)
	const pages = 6
	size := 64 * pages
	if err := fs.Create("/data"); err != nil {
		panic(err)
	}
	fsa := simfs.Bind(l, fs, 100*time.Microsecond, seed)

	mk := func(b byte) []byte {
		out := make([]byte, size)
		for i := range out {
			out[i] = b
		}
		return out
	}
	done := 0
	for _, b := range []byte{'A', 'B'} {
		fsa.WriteAt("/data", 0, mk(b), func(err error) { done++ })
	}
	if err := l.Run(); err != nil {
		panic(err)
	}
	if done != 2 {
		panic("writes did not complete")
	}
	data, err := fs.ReadFile("/data")
	if err != nil {
		panic(err)
	}
	sawA, sawB := false, false
	for p := 0; p < pages; p++ {
		switch data[p*64] {
		case 'A':
			sawA = true
		case 'B':
			sawB = true
		}
	}
	return sawA && sawB
}

// TestWorkerPoolRaceIsBeyondTheFuzzer documents the paper's stated
// limitation (§4.3.3/§4.5 item 1): serializing callbacks "eliminates the
// possibility of exposing several varieties of worker pool-related races".
// Vanilla scheduling mixes pages in some trials; the fuzzer never can.
func TestWorkerPoolRaceIsBeyondTheFuzzer(t *testing.T) {
	trials := trialCount(30, 6)
	vanillaMixed := 0
	for seed := int64(0); seed < int64(trials); seed++ {
		if pageRaceTrial(eventloop.VanillaScheduler{}, seed) {
			vanillaMixed++
		}
	}
	// Whether vanilla concurrency interleaves the writes in a given trial is
	// up to the host's goroutine scheduling — a statistical claim, sound only
	// at the full trial budget. -short keeps just the deterministic half.
	if vanillaMixed == 0 && !testing.Short() {
		t.Errorf("vanilla concurrency never interleaved the writes in %d trials; "+
			"the §4.2.3 race should be live", trials)
	}
	fuzzTrials := trialCount(10, 4)
	for seed := int64(0); seed < int64(fuzzTrials); seed++ {
		if pageRaceTrial(core.NewScheduler(core.StandardParams(), seed), seed) {
			t.Fatalf("seed %d: serialized fuzzer interleaved worker-pool writes — "+
				"§4.3.3's serialization guarantee is broken", seed)
		}
	}
	t.Logf("vanilla mixed pages in %d/%d trials; fuzzer in 0/%d (the documented §4.5 limitation)",
		vanillaMixed, trials, fuzzTrials)
}

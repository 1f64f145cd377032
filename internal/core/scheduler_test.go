package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/frand"
)

func TestStandardParamsMatchTable3(t *testing.T) {
	p := StandardParams()
	if p.EpollDoF != -1 {
		t.Errorf("EpollDoF = %d, want -1 (unlimited)", p.EpollDoF)
	}
	if p.EpollDeferralPct != 10 {
		t.Errorf("EpollDeferralPct = %d, want 10", p.EpollDeferralPct)
	}
	if p.TimerDeferralPct != 20 {
		t.Errorf("TimerDeferralPct = %d, want 20", p.TimerDeferralPct)
	}
	if p.CloseDeferralPct != 5 {
		t.Errorf("CloseDeferralPct = %d, want 5", p.CloseDeferralPct)
	}
	if p.WorkerDoF != -1 {
		t.Errorf("WorkerDoF = %d, want -1 (unlimited)", p.WorkerDoF)
	}
	if p.WorkerMaxDelay != 100*time.Microsecond {
		t.Errorf("WorkerMaxDelay = %v, want 0.1ms", p.WorkerMaxDelay)
	}
	if p.WorkerEpollThreshold != 100*time.Microsecond {
		t.Errorf("WorkerEpollThreshold = %v, want 0.1ms", p.WorkerEpollThreshold)
	}
	if p.TimerDeferralDelay != 5*time.Millisecond {
		t.Errorf("TimerDeferralDelay = %v, want 5ms", p.TimerDeferralDelay)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := StandardParams().Validate(); err != nil {
		t.Errorf("standard params invalid: %v", err)
	}
	if err := NoFuzzParams().Validate(); err != nil {
		t.Errorf("no-fuzz params invalid: %v", err)
	}
	if err := GuidedTimerParams().Validate(); err != nil {
		t.Errorf("guided params invalid: %v", err)
	}
	bad := StandardParams()
	bad.TimerDeferralPct = 101
	if bad.Validate() == nil {
		t.Error("accepted pct > 100")
	}
	bad = StandardParams()
	bad.EpollDeferralPct = -1
	if bad.Validate() == nil {
		t.Error("accepted pct < 0")
	}
	bad = StandardParams()
	bad.TimerDeferralDelay = -time.Second
	if bad.Validate() == nil {
		t.Error("accepted negative duration")
	}
}

func TestSchedulerArchitecture(t *testing.T) {
	s := NewScheduler(StandardParams(), 1)
	if !s.Serialize() {
		t.Error("fuzzer must serialize callbacks")
	}
	if !s.DemuxDone() {
		t.Error("fuzzer must demultiplex the done queue")
	}
	if s.PoolSize(8) != 1 {
		t.Error("fuzzer must force pool size 1")
	}
	if s.Name() != "nodeFZ" {
		t.Errorf("Name = %q", s.Name())
	}
	if NewNoFuzzScheduler().Name() != "nodeNFZ" {
		t.Errorf("nfz name = %q", NewNoFuzzScheduler().Name())
	}
	if NewGuidedScheduler(1).Name() != "nodeFZ(guided)" {
		t.Errorf("guided name = %q", NewGuidedScheduler(1).Name())
	}
}

func mkEvents(n int) []*eventloop.Event {
	evs := make([]*eventloop.Event, n)
	for i := range evs {
		evs[i] = &eventloop.Event{Kind: "net-read", Label: fmt.Sprintf("e%d", i)}
	}
	return evs
}

// TestShuffleReadyIsPermutation is the core legality property: the
// scheduler may reorder and defer but never lose or duplicate events.
func TestShuffleReadyIsPermutation(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		s := NewScheduler(StandardParams(), seed)
		evs := mkEvents(int(n % 64))
		run, deferred := s.ShuffleReady(evs, nil, nil)
		if len(run)+len(deferred) != len(evs) {
			return false
		}
		seen := make(map[*eventloop.Event]bool)
		for _, e := range run {
			seen[e] = true
		}
		for _, e := range deferred {
			seen[e] = true
		}
		if len(seen) != len(evs) {
			return false
		}
		for _, e := range evs {
			if !seen[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestShuffleReadyResultSurvivesNextCall: one scheduler serves every node
// loop of a cluster trial, so one loop may still be executing its run list
// when another loop's poll calls ShuffleReady. The first call's result must
// come through the second untouched, and under wall time the loops call it
// concurrently (the CI race run checks that part for data races).
func TestShuffleReadyResultSurvivesNextCall(t *testing.T) {
	s := NewScheduler(StandardParams(), 7)
	first, second := mkEvents(8), mkEvents(8)
	run, deferred := s.ShuffleReady(first, nil, nil)
	want := labels(run) + " | " + labels(deferred)
	s.ShuffleReady(second, nil, nil)
	if got := labels(run) + " | " + labels(deferred); got != want {
		t.Fatalf("a second ShuffleReady call rewrote the first call's result: %s, was %s", got, want)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ready := mkEvents(6 + g)
			var run, deferred []*eventloop.Event
			for i := 0; i < 200; i++ {
				run, deferred = s.ShuffleReady(ready, run[:0], deferred[:0])
				if len(run)+len(deferred) != len(ready) {
					t.Errorf("goroutine %d: %d+%d events back for %d", g, len(run), len(deferred), len(ready))
					return
				}
				seen := make(map[*eventloop.Event]bool, len(ready))
				for _, e := range append(append([]*eventloop.Event(nil), run...), deferred...) {
					seen[e] = true
				}
				for _, e := range ready {
					if !seen[e] {
						t.Errorf("goroutine %d: event %s lost from its own result", g, e.Label)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// labels renders an event list by label, in order.
func labels(evs []*eventloop.Event) string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.Label
	}
	return strings.Join(out, " ")
}

// refShuffle is the sliding-window shuffle in its plain form: repeatedly
// take one of the first EpollDoF+1 remaining events out of the remainder,
// then defer each event with probability EpollDeferralPct.
func refShuffle(p Params, rng *rand.Rand, ready []*eventloop.Event) (run, deferred []*eventloop.Event) {
	remaining := append([]*eventloop.Event(nil), ready...)
	shuffled := remaining
	if p.EpollDoF != 0 {
		shuffled = nil
		for len(remaining) > 0 {
			w := len(remaining)
			if p.EpollDoF > 0 && p.EpollDoF+1 < w {
				w = p.EpollDoF + 1
			}
			i := rng.Intn(w)
			shuffled = append(shuffled, remaining[i])
			remaining = append(remaining[:i], remaining[i+1:]...)
		}
	}
	for _, ev := range shuffled {
		if p.EpollDeferralPct > 0 && (p.EpollDeferralPct >= 100 || rng.Intn(100) < p.EpollDeferralPct) {
			deferred = append(deferred, ev)
		} else {
			run = append(run, ev)
		}
	}
	return run, deferred
}

// TestShuffleReadyMatchesReference pins the in-place shuffle to the plain
// algorithm, decision for decision: same run order, same deferrals, and the
// same random draws, so every recorded schedule stays what it was.
func TestShuffleReadyMatchesReference(t *testing.T) {
	windowed := StandardParams()
	windowed.EpollDoF = 2
	windowed.EpollDeferralPct = 30
	for _, p := range []Params{StandardParams(), windowed, NoFuzzParams()} {
		for seed := int64(1); seed <= 50; seed++ {
			s := newNamed("test", p, seed)
			ref := frand.New(seed)
			var run, deferred []*eventloop.Event
			for round := 0; round < 5; round++ {
				evs := mkEvents(int(seed+int64(round)) % 12)
				run, deferred = s.ShuffleReady(evs, run[:0], deferred[:0])
				wantRun, wantDeferred := refShuffle(p, ref, evs)
				got, want := labels(run)+" | "+labels(deferred), labels(wantRun)+" | "+labels(wantDeferred)
				if got != want {
					t.Fatalf("DoF %d seed %d round %d: got %s, want %s", p.EpollDoF, seed, round, got, want)
				}
			}
		}
	}
}

func TestShuffleRespectsDoFWindow(t *testing.T) {
	// With DoF d and no deferral, an event cannot appear more than d
	// positions earlier than arrival: output position k draws only from the
	// first d+1 remaining events.
	p := NoFuzzParams()
	p.EpollDoF = 2
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := newNamed("test", p, rng.Int63())
		evs := mkEvents(20)
		pos := make(map[*eventloop.Event]int)
		for i, e := range evs {
			pos[e] = i
		}
		run, deferred := s.ShuffleReady(evs, nil, nil)
		if len(deferred) != 0 {
			t.Fatal("deferred with 0% deferral")
		}
		for k, e := range run {
			if pos[e]-k > p.EpollDoF {
				t.Fatalf("event %s pulled forward %d > DoF %d", e.Label, pos[e]-k, p.EpollDoF)
			}
		}
	}
}

func TestShuffleDoFZeroPreservesOrder(t *testing.T) {
	p := NoFuzzParams() // DoF 0, no deferral
	s := newNamed("test", p, 42)
	evs := mkEvents(10)
	run, deferred := s.ShuffleReady(evs, nil, nil)
	if len(deferred) != 0 || len(run) != 10 {
		t.Fatalf("run=%d deferred=%d", len(run), len(deferred))
	}
	for i, e := range run {
		if e != evs[i] {
			t.Fatalf("order perturbed at %d with DoF 0", i)
		}
	}
}

func TestShuffleFullDeferral(t *testing.T) {
	p := StandardParams()
	p.EpollDeferralPct = 100
	s := newNamed("test", p, 1)
	run, deferred := s.ShuffleReady(mkEvents(5), nil, nil)
	if len(run) != 0 || len(deferred) != 5 {
		t.Fatalf("run=%d deferred=%d, want 0/5", len(run), len(deferred))
	}
}

func TestShuffleEmpty(t *testing.T) {
	s := NewScheduler(StandardParams(), 1)
	run, deferred := s.ShuffleReady(nil, nil, nil)
	if run != nil || deferred != nil {
		t.Fatal("non-nil result for empty ready list")
	}
}

func TestFilterTimersBounds(t *testing.T) {
	f := func(due uint8, seed int64) bool {
		s := NewScheduler(StandardParams(), seed)
		run, delay := s.FilterTimers(int(due))
		if run < 0 || run > int(due) {
			return false
		}
		if run < int(due) && delay != StandardParams().TimerDeferralDelay {
			return false
		}
		if run == int(due) && delay != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterTimersNoFuzzRunsAll(t *testing.T) {
	s := NewNoFuzzScheduler()
	for n := 0; n < 20; n++ {
		run, delay := s.FilterTimers(n)
		if run != n || delay != 0 {
			t.Fatalf("FilterTimers(%d) = (%d, %v)", n, run, delay)
		}
	}
}

func TestFilterTimersAlwaysDefer(t *testing.T) {
	p := StandardParams()
	p.TimerDeferralPct = 100
	s := newNamed("test", p, 3)
	run, delay := s.FilterTimers(10)
	if run != 0 {
		t.Fatalf("run = %d, want 0 with 100%% deferral", run)
	}
	if delay != p.TimerDeferralDelay {
		t.Fatalf("delay = %v", delay)
	}
}

func TestPickTaskInRange(t *testing.T) {
	s := NewScheduler(StandardParams(), 9)
	for n := 1; n <= 32; n++ {
		for trial := 0; trial < 20; trial++ {
			if i := s.PickTask(n); i < 0 || i >= n {
				t.Fatalf("PickTask(%d) = %d out of range", n, i)
			}
		}
	}
	if s.PickTask(0) != 0 {
		t.Fatal("PickTask(0) != 0")
	}
}

func TestPickTaskCoversWindow(t *testing.T) {
	s := NewScheduler(StandardParams(), 11)
	seen := make(map[int]bool)
	for trial := 0; trial < 500; trial++ {
		seen[s.PickTask(4)] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("PickTask(4) never chose index %d in 500 trials", i)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	decisions := func(seed int64) []int {
		s := NewScheduler(StandardParams(), seed)
		var out []int
		for i := 0; i < 100; i++ {
			out = append(out, s.PickTask(8))
			run, _ := s.FilterTimers(4)
			out = append(out, run)
		}
		return out
	}
	a, b := decisions(1234), decisions(1234)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := decisions(5678)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

func TestDeferCloseProbability(t *testing.T) {
	p := StandardParams()
	p.CloseDeferralPct = 100
	s := newNamed("test", p, 1)
	if !s.DeferClose("h") {
		t.Fatal("100% close deferral returned false")
	}
	if NewNoFuzzScheduler().DeferClose("h") {
		t.Fatal("no-fuzz scheduler deferred a close")
	}
}

func TestGuidedParamsFavourAccurateTimers(t *testing.T) {
	g := GuidedTimerParams()
	std := StandardParams()
	if g.TimerDeferralPct != 0 {
		t.Errorf("guided TimerDeferralPct = %d, want 0", g.TimerDeferralPct)
	}
	if g.EpollDeferralPct <= std.EpollDeferralPct {
		t.Error("guided params should defer events more aggressively than standard")
	}
}

func TestParamsString(t *testing.T) {
	s := StandardParams().String()
	for _, want := range []string{"unlimited", "10%", "20%", "5%", "5ms"} {
		if !contains(s, want) {
			t.Errorf("Params.String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

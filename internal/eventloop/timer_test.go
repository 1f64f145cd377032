package eventloop

import (
	"slices"
	"testing"
	"time"

	"nodefz/internal/vclock"
)

// fuzzTimer is one timer of FuzzTimerOrder, registered before Run: a
// timeout after delay or, when period > 0, an interval (delay == period)
// that stops itself after limit firings. Each firing stops timer stop (none
// when -1).
type fuzzTimer struct {
	delay, period time.Duration
	limit         int
	stop          int
	stopEarly     bool // stopped right after registration
}

// firing is one timer firing: the timer and the virtual time it fired at.
type firing struct {
	id int
	at int64
}

// FuzzTimerOrder registers random timeouts and intervals on a virtual-clock
// loop, some of whose callbacks stop other timers, and requires the loop to
// fire them exactly as a reference model does: each firing at its deadline,
// in (deadline, registration) order, and a stopped timer never again.
func FuzzTimerOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 3, 9, 4, 2, 0, 3, 0, 200})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 0, 1, 0, 6, 1, 0})
	f.Add([]byte{7, 0, 0, 128, 2, 0, 5, 2, 0xc1, 19, 5, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxTimers = 12
		var specs []fuzzTimer
		for len(data) >= 3 && len(specs) < maxTimers {
			a, b, c := data[0], data[1], data[2]
			data = data[3:]
			s := fuzzTimer{delay: time.Duration(b%8) * time.Millisecond, stop: -1, stopEarly: a&0x80 != 0}
			if a&1 != 0 {
				s.period = time.Duration(c%4+1) * time.Millisecond
				s.delay, s.limit = s.period, int(c/64)+1
			}
			if a&2 != 0 {
				s.stop = int(a>>2&0x1f) % maxTimers
			}
			specs = append(specs, s)
		}
		for i := range specs {
			if specs[i].stop >= len(specs) {
				specs[i].stop = -1
			}
		}
		got := runFuzzTimers(t, specs)
		if want := refFuzzTimers(specs); !slices.Equal(got, want) {
			t.Fatalf("firings\n got %v\nwant %v", got, want)
		}
	})
}

// runFuzzTimers registers specs on a virtual-clock loop, runs it and
// returns its firings.
func runFuzzTimers(t *testing.T, specs []fuzzTimer) []firing {
	clk := vclock.NewVirtual()
	l := New(Options{Clock: clk})
	var got []firing
	timers := make([]*Timer, len(specs))
	fired := make([]int, len(specs))
	for i, s := range specs {
		i, s := i, s
		cb := func() {
			got = append(got, firing{i, clk.Nanos()})
			fired[i]++
			if s.stop >= 0 {
				timers[s.stop].Stop()
			}
			if s.period > 0 && fired[i] == s.limit {
				timers[i].Stop()
			}
		}
		if s.period > 0 {
			timers[i] = l.SetInterval(s.period, cb)
		} else {
			timers[i] = l.SetTimeout(s.delay, cb)
		}
		if s.stopEarly {
			timers[i].Stop()
		}
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range timers {
		if !tm.stopped {
			t.Fatalf("timer %d is still live after Run", i)
		}
	}
	return got
}

// refFuzzTimers is the reference model: pending firings sorted by
// (deadline, registration), an interval's next deadline its firing time
// plus its period.
func refFuzzTimers(specs []fuzzTimer) []firing {
	at := make([]int64, len(specs))
	live := make([]bool, len(specs))
	fired := make([]int, len(specs))
	for i, s := range specs {
		at[i], live[i] = int64(s.delay), !s.stopEarly
	}
	var out []firing
	for {
		next := -1
		for i := range specs {
			if live[i] && (next < 0 || at[i] < at[next]) {
				next = i
			}
		}
		if next < 0 {
			return out
		}
		s := specs[next]
		out = append(out, firing{next, at[next]})
		fired[next]++
		if s.period > 0 {
			at[next] += int64(s.period)
		} else {
			live[next] = false
		}
		if s.stop >= 0 {
			live[s.stop] = false
		}
		if s.period > 0 && fired[next] == s.limit {
			live[next] = false
		}
	}
}

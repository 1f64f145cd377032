package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestSweepSmallBudget(t *testing.T) {
	virtualTrials(t)
	res := Sweep("timer-deferral", "NES", []int{0, 20}, 4, 11)
	if res.Param != "timer-deferral" || res.Bug != "NES" {
		t.Fatalf("result metadata: %+v", res)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Rate.Trials != 4 {
			t.Errorf("value %d: trials = %d", pt.Value, pt.Rate.Trials)
		}
	}
	var buf bytes.Buffer
	WriteSweep(&buf, []SweepResult{res})
	out := buf.String()
	for _, want := range []string{"Parameter sensitivity", "NES", "20%*"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepUnknownParamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown parameter accepted")
		}
	}()
	paramsWith("bogus", 10)
}

func TestParamsWithOverridesOneKnob(t *testing.T) {
	p := paramsWith("epoll-deferral", 77)
	if p.EpollDeferralPct != 77 || p.TimerDeferralPct != 20 || p.CloseDeferralPct != 5 {
		t.Fatalf("params = %+v", p)
	}
	p = paramsWith("close-deferral", 50)
	if p.CloseDeferralPct != 50 || p.EpollDeferralPct != 10 {
		t.Fatalf("params = %+v", p)
	}
	if !isStandardValue("timer-deferral", 20) || isStandardValue("timer-deferral", 21) || isStandardValue("bogus", 20) {
		t.Fatal("isStandardValue wrong")
	}
}

package harness

import (
	"fmt"
	"io"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
)

// SweepPoint is one measurement in a parameter sweep.
type SweepPoint struct {
	Value int // the percentage the parameter was set to
	Rate  Rate
}

// SweepResult is a bug's manifestation rate as one scheduler parameter
// varies with the others held at the standard parameterization — the
// ablation behind §5.1.2's claim that the standard values were "identified
// using some synthetic races" and behind §5.2.3's guided tuning.
type SweepResult struct {
	Param  string
	Bug    string
	Points []SweepPoint
}

func paramsWith(param string, value int) core.Params {
	p := core.StandardParams()
	switch param {
	case "timer-deferral":
		p.TimerDeferralPct = value
	case "epoll-deferral":
		p.EpollDeferralPct = value
	case "close-deferral":
		p.CloseDeferralPct = value
	default:
		panic("harness: unknown sweep parameter " + param)
	}
	return p
}

// Sweep measures abbr's manifestation rate at each value of param.
func Sweep(param, abbr string, values []int, trials int, baseSeed int64) SweepResult {
	app := mustApp(abbr)
	res := SweepResult{Param: param, Bug: abbr}
	for _, v := range values {
		params := paramsWith(param, v)
		rate := measure(app.Run, func(seed int64) eventloop.Scheduler {
			return core.NewScheduler(params, seed)
		}, trials, baseSeed, trialMeta{bug: abbr, mode: ModeFZ})
		res.Points = append(res.Points, SweepPoint{Value: v, Rate: rate})
	}
	return res
}

// WriteSweep renders sweep results.
func WriteSweep(w io.Writer, results []SweepResult) {
	fmt.Fprintf(w, "Parameter sensitivity (ablation of the Table 3 standard parameterization)\n\n")
	for _, res := range results {
		fmt.Fprintf(w, "%s: manifestation rate of %s vs %s percentage\n", res.Bug, res.Bug, res.Param)
		for _, pt := range res.Points {
			marker := " "
			if isStandardValue(res.Param, pt.Value) {
				marker = "*" // the paper's standard value
			}
			fmt.Fprintf(w, "  %3d%%%s |%s %d/%d\n", pt.Value, marker,
				bar(pt.Rate.Fraction(), 40), pt.Rate.Manifested, pt.Rate.Trials)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(* = the Table 3 standard value)")
}

func isStandardValue(param string, v int) bool {
	std := core.StandardParams()
	switch param {
	case "timer-deferral":
		return v == std.TimerDeferralPct
	case "epoll-deferral":
		return v == std.EpollDeferralPct
	case "close-deferral":
		return v == std.CloseDeferralPct
	}
	return false
}

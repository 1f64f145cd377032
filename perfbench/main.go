// Command perfbench is the repository's benchmark. It runs one workload —
// a stream of fuzzing trials through the program's exported API — for a
// fixed time, checks the outcomes, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics BENCHMARK.json declares (-trace 0) or its
// per-layer metrics (-trace 1, a separate run that times each layer from
// outside around the calls into it). Run it through run.sh from the root of
// the checkout, which builds it first:
//
//	bash perfbench/run.sh --workload fig6-sweep --seed 1 --seconds 20 --trace 0
//
// With -spread FILE..., it instead reads result lines (one JSON object per
// line, as the runs above print last) and reports each metric's spread
// across them against its bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's command-line settings.
type options struct {
	seed     int64
	duration time.Duration
}

// workload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics) and fills the report.
type workload struct {
	untraced func(options, *report) error
	traced   func(options, *report) error
}

var workloads = map[string]workload{
	"fig6-sweep":   {fig6Sweep, fig6Traced},
	"campaign-sio": {sioCampaigns.untraced, sioCampaigns.traced},
	"campaign-rep": {repCampaigns.untraced, repCampaigns.traced},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same trials")
	seconds := fs.Int("seconds", 20, "measured run length in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	spreadMode := fs.Bool("spread", false, "report metric spreads across the result files given as arguments")
	coldStartMode := fs.Bool("cold-start", false, "run only fig6-sweep's set-up (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// One trial at a time per processor: a campaign at full load runs
	// Workers = GOMAXPROCS trials at once, so each trial's run-token
	// handoffs (loop, pool workers, network engine) stay on its own
	// processor. One processor measures that steady state; with a second,
	// idle one, every handoff would wake a thread there instead.
	runtime.GOMAXPROCS(1)
	if *coldStartMode {
		runColdStart(*seed)
		return 0
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *spreadMode {
		if err := reportSpread(spec, fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{seed: *seed, duration: time.Duration(*seconds) * time.Second}
	r := newReport()
	declared := spec.EndToEnd
	if *trace == 1 {
		err = w.traced(o, r)
		declared = spec.PerLayer
	} else {
		err = w.untraced(o, r)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := r.resultLine(declared)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	r.print(stdout, *name, *trace == 1)
	fmt.Fprintln(stdout, line)
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics it
// must print and their bounds.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// metric is one measured value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome: the operation counts, the correctness
// checks, every metric computed (declared in BENCHMARK.json or not), and
// free-text lines such as exact outcome counts.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	order             []string
	notApplicable     map[string]string // metric -> unit, for metrics a workload has no value for
	lines             []string
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), notApplicable: make(map[string]string)}
}

func (r *report) set(name, unit string, v float64) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// na records a metric the workload has no value for: it is printed as n/a.
func (r *report) na(name, unit string) {
	r.order = append(r.order, name)
	r.notApplicable[name] = unit
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// resultLine renders the final JSON object with exactly the declared
// metrics. A declared metric the workload did not compute, or computed in
// another unit, is an error in the benchmark itself.
func (r *report) resultLine(declared []metricSpec) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.failures) == 0, r.attempted, r.failed, make(map[string]metric)}
	for _, d := range declared {
		m, ok := r.metrics[d.Name]
		if !ok {
			if _, na := r.notApplicable[d.Name]; na {
				return "", fmt.Errorf("metric %s is declared but does not apply to this workload", d.Name)
			}
			return "", fmt.Errorf("metric %s is declared but was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s has no finite value", d.Name)
		}
		out.Metrics[d.Name] = m
	}
	if out.Attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// print writes the human-readable report: every metric, the checks, and
// the workload's own lines.
func (r *report) print(w io.Writer, workload string, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "# %s: %s metrics (%d attempted, %d failed)\n", workload, kind, r.attempted, r.failed)
	for _, n := range r.order {
		if unit, ok := r.notApplicable[n]; ok {
			fmt.Fprintf(w, "%-36s %14s %s\n", n, "n/a", unit)
			continue
		}
		m := r.metrics[n]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	if len(r.failures) == 0 {
		fmt.Fprintln(w, "checks: all passed")
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "check failed:", f)
	}
}

// reportSpread reads result lines from files and prints, per end-to-end
// metric, the quartile spread across them (as a share of the median)
// against the metric's bound.
func reportSpread(s *spec, files []string, w io.Writer) error {
	if len(files) == 0 {
		return errors.New("-spread needs result files")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		values := make(map[string][]float64)
		runs := 0
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			var res struct {
				Correct bool              `json:"correct"`
				Metrics map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return fmt.Errorf("%s: %w", f, err)
			}
			if !res.Correct {
				fmt.Fprintf(w, "%s: a run reported correct=false\n", f)
			}
			runs++
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
			}
		}
		fmt.Fprintf(w, "%s (%d runs)\n", f, runs)
		for _, m := range s.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				continue
			}
			sp := spread(xs)
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "(not bounded)"
			case sp > m.Bound:
				verdict = "OVER BOUND"
			case sp > m.Bound/3:
				verdict = "over a third of bound"
			}
			fmt.Fprintf(w, "  %-24s median %-12.6g spread %6.3f bound %.2f  %s\n", m.Name, median(xs), sp, m.Bound, verdict)
		}
	}
	return nil
}

// scratchDir makes a private directory for journals under the checkout's
// build directory, so a run writes nothing outside the checkout.
func scratchDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}

// mix derives the i-th input seed of a workload from its --seed, so the
// trials a run makes depend on the seed argument alone (splitmix64).
func mix(base int64, i int) int64 {
	z := uint64(base)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

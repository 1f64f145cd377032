package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// rateWindows is how many equal windows a run is split into for
// trials_per_s.
const rateWindows = 20

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// stamp is one instant on the wall clock and on the process's CPU clock.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

// now reads both clocks. Process CPU time leaves out the time the host
// takes a virtual CPU away (steal), which on a shared machine moves
// wall-clock trial times by tens of percent from one minute to the next;
// with one processor (see run) it is otherwise the trial's own time.
func now() stamp {
	var ts syscall.Timespec
	// clock_gettime fails only for a bad clock id or address.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return stamp{time.Now(), time.Duration(ts.Nano())}
}

// span is the wall and CPU time between two stamps.
type span struct{ wall, cpu time.Duration }

func (s stamp) to(e stamp) span { return span{e.wall.Sub(s.wall), e.cpu - s.cpu} }

// timings collects one run's trial timings on both clocks, with the
// allocator counters at its start.
type timings struct {
	start         stamp
	mem           runtime.MemStats
	wallUS, cpuUS []float64 // each trial
	done          []float64 // every trial's completion, seconds into the run
	setups        []span
}

func startTimings() *timings {
	t := &timings{}
	runtime.ReadMemStats(&t.mem)
	t.start = now()
	return t
}

// trial records a trial that began at s.
func (t *timings) trial(s stamp) {
	e := now()
	d := s.to(e)
	t.done = append(t.done, e.wall.Sub(t.start.wall).Seconds())
	t.wallUS = append(t.wallUS, us(d.wall))
	t.cpuUS = append(t.cpuUS, us(d.cpu))
}

// report sets the timing, allocation and memory metrics of a run that ends
// now. setup_s is the median set-up in CPU seconds.
func (t *timings) report(r *report) {
	end := now()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	run := t.start.to(end)
	n := float64(len(t.done))
	var setupWall, setupCPU []float64
	for _, s := range t.setups {
		setupWall = append(setupWall, s.wall.Seconds())
		setupCPU = append(setupCPU, s.cpu.Seconds())
	}
	r.set("trials_per_s", "1/s", windowRate(t.done, run.wall.Seconds(), rateWindows))
	r.set("trial_us_p50", "us", percentile(t.wallUS, 0.50))
	r.set("trial_us_p99", "us", percentile(t.wallUS, 0.99))
	r.set("cpu_us_per_trial", "us", us(run.cpu)/n)
	r.set("trial_cpu_us_p50", "us", percentile(t.cpuUS, 0.50))
	r.set("trial_cpu_us_p99", "us", percentile(t.cpuUS, 0.99))
	r.set("setup_s", "s", median(setupCPU))
	r.set("setup_wall_s", "s", median(setupWall))
	r.set("allocs_per_trial", "count", float64(mem.Mallocs-t.mem.Mallocs)/n)
	r.set("alloc_bytes_per_trial", "B", float64(mem.TotalAlloc-t.mem.TotalAlloc)/n)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.check(false, "getrusage: %v", err)
	} else {
		r.set("max_rss_mb", "MB", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	r.linef("samples: %d trials and %d set-ups in %.3fs wall, %.3fs CPU (mean %.1f trials/s)",
		len(t.done), len(t.setups), run.wall.Seconds(), run.cpu.Seconds(), n/run.wall.Seconds())
	r.linef("latency p90/p95: wall %.1f/%.1f us, CPU %.1f/%.1f us",
		percentile(t.wallUS, 0.90), percentile(t.wallUS, 0.95), percentile(t.cpuUS, 0.90), percentile(t.cpuUS, 0.95))
}

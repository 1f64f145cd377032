// Package campaign orchestrates fuzzing campaigns: many independent trials
// of a bug application, run in parallel across a bounded worker pool, made
// adaptive by a schedule-novelty corpus and a UCB1 bandit over scheduler
// parameterizations, with delta-debugging trace minimization for manifesting
// trials and a JSONL checkpoint journal so a killed campaign resumes where
// it left off.
//
// Node.fz §6 points at guided exploration beyond blind randomized fuzzing;
// the campaign layer supplies the fleet-level half of that: each executor
// worker owns its own trial world — event loop, network, scheduler, virtual
// clock — reset between its trials (trials are embarrassingly parallel),
// while the campaign decides *which* parameterization each trial runs under
// and remembers *which* schedules have already been seen.
package campaign

import (
	"runtime"
	"sync"
)

// Executor runs n independent, indexed jobs on a bounded pool of worker
// goroutines. Job i receives its index; any state a job needs must be
// derived from the index (the campaign derives per-trial seeds with
// TrialSeed) so results are independent of how jobs interleave across
// workers.
type Executor struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
}

// Run executes job(0) .. job(n-1), each exactly once, and returns when all
// have completed. Workers == 1 degenerates to a plain sequential loop on the
// calling goroutine, so a single-worker run is bit-identical to the
// historical sequential path.
func (e Executor) Run(n int, job func(i int)) {
	e.RunIndexed(n, func(_, i int) { job(i) })
}

// WorkerCount reports the number of workers Run/RunIndexed would use for n
// jobs — the upper bound on the worker index jobs observe.
func (e Executor) WorkerCount(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunIndexed is Run with worker identity: job i receives (worker, i), where
// worker is a stable index in [0, WorkerCount(n)). Jobs sharing a worker
// index never overlap in time, which is what lets the campaign pin one
// reusable trial arena to each worker.
func (e Executor) RunIndexed(n int, job func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := e.WorkerCount(n)
	if w == 1 {
		for i := 0; i < n; i++ {
			job(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range next {
				job(worker, i)
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// TrialSeed derives the deterministic seed of trial i from the campaign's
// base seed via a splitmix64 finalizer. Deriving from (base, index) — never
// from completion order — keeps per-trial seeds independent of worker
// interleaving, so a resumed or reparallelized campaign feeds every trial
// the same randomness. The mix step decorrelates the substrate RNG streams
// of adjacent trials, which plain base+i would seed almost identically.
func TrialSeed(base int64, trial int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(trial+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

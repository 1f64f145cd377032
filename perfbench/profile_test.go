package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// A repo frame at the leaf names the layer.
		{[]string{"nodefz/internal/eventloop.(*Loop).poll", "nodefz/internal/bugs.runSIO"}, "eventloop"},
		// A runtime helper is charged to the repo frame that called it.
		{[]string{"runtime.mallocgc", "runtime.newobject", "nodefz/internal/simnet.(*Network).Send"}, "simnet"},
		{[]string{"runtime.mapaccess2_faststr", "nodefz/internal/campaign.(*Corpus).AdmitWithCoverage"}, "campaign"},
		// Sub-packages and packages without a bucket of their own go to other.
		{[]string{"nodefz/internal/cluster/repkv.(*Replica).step"}, "other"},
		{[]string{"nodefz/internal/bugs.runSIO.func1"}, "other"},
		// Parking and waking goroutines is handoff, even under a repo frame.
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm",
			"runtime.wakep", "runtime.ready", "runtime.goready", "runtime.chansend",
			"nodefz/internal/vclock.(*Virtual).Wake"}, "handoff"},
		{[]string{"runtime.selectgo", "nodefz/internal/simnet.(*engine).run"}, "handoff"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "handoff"},
		// Collector work anywhere on the stack is gc.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"nodefz/internal/oracle.(*Tracker).Begin"}, "gc"},
		{[]string{"runtime.(*sweepLocked).sweep", "runtime.bgsweep"}, "gc"},
		// Nothing recognisable.
		{[]string{"syscall.Syscall", "os.(*File).Write", "main.main"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i ^ n
		}
	}
	return n
}

var spinSink int

// TestDecodeRealProfile takes a real CPU profile of a busy loop and checks
// the decoder finds the loop's function on the sampled stacks.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinSink = spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	stacks, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range stacks {
		total += s.count
		for _, fn := range s.funcs {
			if strings.HasSuffix(fn, "spinForProfile") {
				spin += s.count
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Fatalf("spin loop in %d of %d samples; want most", spin, total)
	}
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples != total {
		t.Errorf("cpuShares counted %d samples, decoder %d", samples, total)
	}
	var sum float64
	for _, b := range cpuBuckets {
		sum += shares[b]
	}
	if sum < 0.999 || sum > 1.001 || shares["other"] < 0.5 {
		t.Errorf("shares %v: want a sum of 1, mostly other", shares)
	}
}

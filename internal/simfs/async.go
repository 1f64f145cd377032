package simfs

import (
	"math/rand"

	"nodefz/internal/frand"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

// Async exposes the filesystem asynchronously, Node-style: each operation
// is offloaded to the loop's worker pool and its completion callback runs
// on the loop — precisely the FS events the bug study found racing (§3.3.1,
// "file system interactions (FS - uses worker pool)").
type Async struct {
	loop    *eventloop.Loop
	fs      *FS
	latency time.Duration

	mu  vclock.Mutex // bound to the loop's clock
	rng *rand.Rand
}

// Bind attaches fs to loop. latency, if positive, is an artificial per-op
// service time executed on the worker — a stand-in for disk time that
// widens the racing window the way real I/O does. The actual per-op time
// is jittered uniformly in [latency/2, 3*latency/2] from the seeded
// generator, because real disk service times vary and that variance is
// what reorders concurrent completions.
func Bind(loop *eventloop.Loop, fs *FS, latency time.Duration, seed int64) *Async {
	a := &Async{
		loop:    loop,
		fs:      fs,
		latency: latency,
		rng:     frand.New(seed),
	}
	if loop != nil {
		fs.SetClock(loop.Clock())
		a.mu.Bind(loop.Clock())
	}
	return a
}

// FS returns the underlying synchronous filesystem.
func (a *Async) FS() *FS { return a.fs }

// Reseed re-arms the jitter generator in place, bit-identical to a fresh
// Bind with the same seed — the trial-arena path that keeps one Async per
// loop across trials instead of allocating a new generator each time.
func (a *Async) Reseed(seed int64) {
	a.mu.Lock()
	a.rng.Seed(seed)
	a.mu.Unlock()
}

func (a *Async) serviceTime() time.Duration {
	if a.latency <= 0 {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	half := int64(a.latency / 2)
	return a.latency/2 + time.Duration(a.rng.Int63n(2*half+1))
}

func (a *Async) work(op string, fn func() (any, error), done func(any, error)) {
	// The service time rides on the task as Latency (instead of a sleep
	// inside fn) so the pool can charge it to the trial clock: real sleep in
	// wall mode, a simulated-time advance under a virtual clock.
	a.loop.QueueWorkLatency("fs:"+op, a.serviceTime(), fn, done)
}

// Mkdir is the asynchronous FS.Mkdir.
func (a *Async) Mkdir(path string, cb func(error)) {
	a.work("mkdir", func() (any, error) { return nil, a.fs.Mkdir(path) },
		func(_ any, err error) { cb(err) })
}

// Stat is the asynchronous FS.Stat.
func (a *Async) Stat(path string, cb func(Info, error)) {
	a.work("stat", func() (any, error) { return a.fs.Stat(path) },
		func(res any, err error) {
			info, _ := res.(Info)
			cb(info, err)
		})
}

// Create is the asynchronous FS.Create.
func (a *Async) Create(path string, cb func(error)) {
	a.work("create", func() (any, error) { return nil, a.fs.Create(path) },
		func(_ any, err error) { cb(err) })
}

// WriteFile is the asynchronous FS.WriteFile.
func (a *Async) WriteFile(path string, data []byte, cb func(error)) {
	a.work("write", func() (any, error) { return nil, a.fs.WriteFile(path, data) },
		func(_ any, err error) { cb(err) })
}

// ReadFile is the asynchronous FS.ReadFile.
func (a *Async) ReadFile(path string, cb func([]byte, error)) {
	a.work("read", func() (any, error) { return a.fs.ReadFile(path) },
		func(res any, err error) {
			data, _ := res.([]byte)
			cb(data, err)
		})
}

// Append is the asynchronous FS.Append.
func (a *Async) Append(path string, data []byte, cb func(error)) {
	a.work("append", func() (any, error) { return nil, a.fs.Append(path, data) },
		func(_ any, err error) { cb(err) })
}

// WriteAt is the asynchronous FS.WriteAt.
func (a *Async) WriteAt(path string, off int, data []byte, cb func(error)) {
	a.work("write", func() (any, error) { return nil, a.fs.WriteAt(path, off, data) },
		func(_ any, err error) { cb(err) })
}

// ReadAt is the asynchronous FS.ReadAt.
func (a *Async) ReadAt(path string, off, count int, cb func([]byte, error)) {
	a.work("read", func() (any, error) { return a.fs.ReadAt(path, off, count) },
		func(res any, err error) {
			data, _ := res.([]byte)
			cb(data, err)
		})
}

// Unlink is the asynchronous FS.Unlink.
func (a *Async) Unlink(path string, cb func(error)) {
	a.work("unlink", func() (any, error) { return nil, a.fs.Unlink(path) },
		func(_ any, err error) { cb(err) })
}

// ReadDir is the asynchronous FS.ReadDir.
func (a *Async) ReadDir(path string, cb func([]string, error)) {
	a.work("readdir", func() (any, error) { return a.fs.ReadDir(path) },
		func(res any, err error) {
			names, _ := res.([]string)
			cb(names, err)
		})
}

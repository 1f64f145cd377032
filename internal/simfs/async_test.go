package simfs

import (
	"bytes"
	"testing"
	"time"

	"nodefz/internal/eventloop"
)

func runAsync(t *testing.T, l *eventloop.Loop) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("loop did not terminate")
	}
}

func TestAsyncWriteReadRoundtrip(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	a := Bind(l, New(), time.Millisecond, 1)
	payload := []byte("hello async fs")
	var got []byte
	a.WriteFile("/f", payload, func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
			return
		}
		a.ReadFile("/f", func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	runAsync(t, l)
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
}

func TestAsyncMkdirCreateStat(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	a := Bind(l, New(), time.Millisecond, 2)
	var dir, file Info
	a.Mkdir("/d", func(err error) {
		if err != nil {
			t.Errorf("mkdir: %v", err)
			return
		}
		a.Create("/d/f", func(err error) {
			a.Stat("/d/f", func(info Info, err error) {
				if err != nil {
					t.Errorf("stat /d/f: %v", err)
				}
				file = info
				a.Stat("/d", func(info Info, err error) {
					if err != nil {
						t.Errorf("stat /d: %v", err)
					}
					dir = info
				})
			})
		})
	})
	runAsync(t, l)
	if !dir.IsDir || file.IsDir {
		t.Fatalf("stat: /d = %+v, /d/f = %+v", dir, file)
	}
}

func TestAsyncErrorPropagation(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	a := Bind(l, New(), 0, 3)
	var mkdirErr, readErr, unlinkErr error
	a.Mkdir("/x/y", func(err error) { mkdirErr = err })
	a.ReadFile("/none", func(_ []byte, err error) { readErr = err })
	a.Unlink("/none", func(err error) { unlinkErr = err })
	runAsync(t, l)
	if !IsErrno(mkdirErr, ENOENT) {
		t.Errorf("mkdir err = %v", mkdirErr)
	}
	if !IsErrno(readErr, ENOENT) {
		t.Errorf("read err = %v", readErr)
	}
	if !IsErrno(unlinkErr, ENOENT) {
		t.Errorf("unlink err = %v", unlinkErr)
	}
}

func TestAsyncAppendAndWriteAt(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	fs := New()
	a := Bind(l, fs, time.Millisecond, 4)
	a.Create("/log", func(error) {
		a.Append("/log", []byte("abc"), func(error) {
			a.WriteAt("/log", 1, []byte("XY"), func(error) {
				a.ReadAt("/log", 0, 3, func(data []byte, err error) {
					if string(data) != "aXY" {
						t.Errorf("data = %q", data)
					}
				})
			})
		})
	})
	runAsync(t, l)
}

func TestAsyncServiceTimeJitterDeterministicPerSeed(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		a := Bind(nil, New(), 2*time.Millisecond, seed)
		out := make([]time.Duration, 20)
		for i := range out {
			out[i] = a.serviceTime()
		}
		return out
	}
	a1, a2 := mk(9), mk(9)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different service times")
		}
		if a1[i] < time.Millisecond || a1[i] > 3*time.Millisecond {
			t.Fatalf("service time %v outside [latency/2, 3*latency/2]", a1[i])
		}
	}
	b := mk(10)
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical service times")
	}
	if zero := Bind(nil, New(), 0, 1); zero.serviceTime() != 0 {
		t.Fatal("zero latency should have zero service time")
	}
}

// TestAsyncManyConcurrentOps drives a burst of mixed operations and checks
// every callback fires exactly once.
func TestAsyncManyConcurrentOps(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	fs := New()
	a := Bind(l, fs, 200*time.Microsecond, 5)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	callbacks := 0
	for i := 0; i < n; i++ {
		path := "/d/f" + string(rune('a'+i%26))
		a.WriteFile(path, []byte{byte(i)}, func(err error) { callbacks++ })
	}
	runAsync(t, l)
	if callbacks != n {
		t.Fatalf("callbacks = %d, want %d", callbacks, n)
	}
}

package simfs

import (
	"testing"
	"time"

	"nodefz/internal/eventloop"
)

func TestWatcherSeesMutations(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	fs := New()
	var events []WatchEvent
	var w *Watcher
	w = fs.Watch(l, "/", func(ev WatchEvent) {
		events = append(events, ev)
		if ev.Op == WatchRemove {
			w.Close()
		}
	})
	l.SetTimeout(time.Millisecond, func() {
		if err := fs.Mkdir("/d"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := fs.WriteFile("/d/f", []byte("x")); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := fs.Unlink("/d/f"); err != nil {
			t.Errorf("unlink: %v", err)
		}
	})
	runAsync(t, l)
	want := []struct {
		op   WatchOp
		path string
	}{
		{WatchMkdir, "/d"},
		{WatchCreate, "/d/f"},
		{WatchWrite, "/d/f"},
		{WatchRemove, "/d/f"},
	}
	if len(events) != len(want) {
		t.Fatalf("events = %v", events)
	}
	for i, ev := range events {
		if ev.Op != want[i].op || ev.Path != want[i].path {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestWatcherPrefixFiltering(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	fs := New()
	if err := fs.Mkdir("/in"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/out"); err != nil {
		t.Fatal(err)
	}
	var got []string
	var w *Watcher
	w = fs.Watch(l, "/in", func(ev WatchEvent) { got = append(got, ev.Path) })
	l.SetTimeout(time.Millisecond, func() {
		_ = fs.Create("/out/miss")
		_ = fs.Create("/in/hit")
		l.SetTimeout(5*time.Millisecond, func() { w.Close() })
	})
	runAsync(t, l)
	if len(got) != 1 || got[0] != "/in/hit" {
		t.Fatalf("got %v, want [/in/hit]", got)
	}
}

func TestWatcherCloseStopsDelivery(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	fs := New()
	n := 0
	w := fs.Watch(l, "/", func(WatchEvent) { n++ })
	w.Close()
	w.Close() // idempotent
	l.SetTimeout(time.Millisecond, func() { _ = fs.Create("/f") })
	runAsync(t, l)
	if n != 0 {
		t.Fatalf("closed watcher received %d events", n)
	}
}

func TestWatcherFromWorkerOps(t *testing.T) {
	// Mutations performed on worker goroutines (the async API) reach
	// watchers on the loop.
	l := eventloop.New(eventloop.Options{})
	fs := New()
	a := Bind(l, fs, time.Millisecond, 1)
	var got []WatchEvent
	var w *Watcher
	w = fs.Watch(l, "/", func(ev WatchEvent) {
		got = append(got, ev)
		if len(got) == 2 { // create + write
			w.Close()
		}
	})
	a.WriteFile("/f", []byte("payload"), func(err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
	})
	runAsync(t, l)
	if len(got) != 2 || got[0].Op != WatchCreate || got[1].Op != WatchWrite {
		t.Fatalf("got %+v", got)
	}
}

func TestNormalizePrefix(t *testing.T) {
	for in, want := range map[string]string{
		"":      "/",
		"/":     "/",
		"/a/":   "/a",
		"a/b":   "/a/b",
		"/a/b/": "/a/b",
	} {
		if got := normalizePrefix(in); got != want {
			t.Errorf("normalizePrefix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"/a/b/": "/a/b",
		"a":     "/a",
		"/":     "/",
		"//x//": "/x",
	} {
		if got := canonical(in); got != want {
			t.Errorf("canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

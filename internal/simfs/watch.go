package simfs

import (
	"strings"

	"nodefz/internal/eventloop"
)

// WatchOp identifies the kind of filesystem mutation a watcher observed.
type WatchOp string

// The observable mutations.
const (
	WatchCreate WatchOp = "create"
	WatchWrite  WatchOp = "write"
	WatchMkdir  WatchOp = "mkdir"
	WatchRemove WatchOp = "remove"
	WatchRename WatchOp = "rename"
)

// WatchEvent is one observed mutation.
type WatchEvent struct {
	Op   WatchOp
	Path string // the affected path (for rename: the new path)
	Old  string // for rename: the old path
}

// Watcher delivers filesystem change notifications to an event loop — the
// fs.watch facility §4.2.1 lists among the server-side nondeterminism
// sources client-side JavaScript never sees. Events surface in the loop's
// poll phase ("fs-watch" kind), where the schedule fuzzer may reorder them
// against everything else; same-watcher events keep their order (the
// per-source FIFO legality rule).
type Watcher struct {
	fs     *FS
	loop   *eventloop.Loop
	src    *eventloop.Source
	prefix string
	cb     func(WatchEvent)
	closed bool
}

// Watch registers a watcher for mutations at or under prefix ("/" watches
// everything). cb runs on loop.
func (fs *FS) Watch(loop *eventloop.Loop, prefix string, cb func(WatchEvent)) *Watcher {
	w := &Watcher{
		fs:     fs,
		loop:   loop,
		src:    loop.NewSource("watch:" + prefix),
		prefix: normalizePrefix(prefix),
		cb:     cb,
	}
	fs.watchMu.Lock()
	fs.watchers = append(fs.watchers, w)
	fs.watchMu.Unlock()
	return w
}

// Close deregisters the watcher; its close callback semantics follow the
// loop's close phase. Pending undelivered events are dropped.
func (w *Watcher) Close() {
	w.fs.watchMu.Lock()
	if w.closed {
		w.fs.watchMu.Unlock()
		return
	}
	w.closed = true
	for i, e := range w.fs.watchers {
		if e == w {
			w.fs.watchers = append(w.fs.watchers[:i:i], w.fs.watchers[i+1:]...)
			break
		}
	}
	w.fs.watchMu.Unlock()
	w.src.Close(nil)
}

func normalizePrefix(p string) string {
	if p == "" || p == "/" {
		return "/"
	}
	return "/" + strings.Trim(p, "/")
}

func (w *Watcher) matches(path string) bool {
	if w.prefix == "/" {
		return true
	}
	return path == w.prefix || strings.HasPrefix(path, w.prefix+"/")
}

// notify fans an event out to matching watchers. Called by the mutating
// operations after they succeed; safe from worker goroutines.
func (fs *FS) notify(ev WatchEvent) {
	fs.watchMu.Lock()
	var targets []*Watcher
	for _, w := range fs.watchers {
		if w.matches(ev.Path) || (ev.Old != "" && w.matches(ev.Old)) {
			targets = append(targets, w)
		}
	}
	fs.watchMu.Unlock()
	for _, w := range targets {
		w := w
		w.src.Post("fs-watch", string(ev.Op)+":"+ev.Path, func() { w.cb(ev) })
	}
}

// canonical rebuilds the canonical "/a/b" form from split components.
func canonical(path string) string {
	parts, ok := split(make([]string, 0, pathDepth), path)
	if !ok || len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}

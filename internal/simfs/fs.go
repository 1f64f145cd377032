// Package simfs is an in-memory POSIX-flavoured filesystem: the substrate
// for the paper's file-system races (CLF, MKD, RST) and for the worker-pool
// write race of §4.2.3.
//
// Two properties matter for reproducing the paper's bugs:
//
//   - errno fidelity: Mkdir on an existing path fails with EEXIST, on a
//     missing parent with ENOENT — the exact codes the buggy mkdirp
//     mishandles;
//   - page-granularity write atomicity, like ext4 (§4.2.3): a multi-page
//     WriteAt locks the file per page, so two concurrent overlapping writes
//     produce a file in which "each affected page will consist of data from
//     either write", but pages never tear internally.
//
// Synchronous methods are safe for concurrent use (worker-pool tasks call
// them directly); Async in async.go routes them through a loop's worker
// pool like Node's fs module.
package simfs

import (
	"strings"
	"time"

	"nodefz/internal/vclock"
)

// DefaultPageSize is the write-atomicity granularity, matching a common OS
// page size.
const DefaultPageSize = 4096

// FS is an in-memory filesystem rooted at "/". Its locks, the per-file
// ones included, follow the clock SetClock installs.
type FS struct {
	pageSize int

	mu   vclock.Mutex // guards the tree structure and file sizes
	root *node

	opsMu vclock.Mutex // guards opCounts
	ops   map[string]int

	watchMu  vclock.Mutex // guards watchers
	watchers []*Watcher

	pageDelay time.Duration // simulated disk time per page (see SetPageWriteDelay)
	clk       vclock.Clock  // time source for pageDelay; nil means wall time
}

type node struct {
	dir      bool
	children map[string]*node

	fileMu vclock.Mutex // per-file page lock (see WriteAt)
	data   []byte
}

// bind binds the page locks of n and everything under it to clk.
func (n *node) bind(clk vclock.Clock) {
	n.fileMu.Bind(clk)
	for _, c := range n.children {
		c.bind(clk)
	}
}

// New returns an empty filesystem with the default page size.
func New() *FS { return NewPageSize(DefaultPageSize) }

// NewPageSize returns an empty filesystem with the given write-atomicity
// granularity.
func NewPageSize(pageSize int) *FS {
	if pageSize < 1 {
		pageSize = 1
	}
	return &FS{
		pageSize: pageSize,
		root:     &node{dir: true, children: make(map[string]*node)},
		ops:      make(map[string]int),
	}
}

// Reset empties the filesystem in place — tree, op counts, and watchers —
// as if freshly built, keeping the page size, page-write delay, and clock.
// The caller must guarantee no operation is in flight.
func (fs *FS) Reset() {
	fs.mu.Lock()
	fs.root = &node{dir: true, children: make(map[string]*node)}
	fs.mu.Unlock()
	fs.opsMu.Lock()
	clear(fs.ops)
	fs.opsMu.Unlock()
	fs.watchMu.Lock()
	clear(fs.watchers)
	fs.watchers = fs.watchers[:0]
	fs.watchMu.Unlock()
}

// SetPageWriteDelay makes every page of a WriteAt cost d of simulated disk
// time (spent *outside* the per-file lock, between pages). Real disks take
// time per page, which is what gives concurrent overlapping writes their
// §4.2.3 interleaving window; the default of 0 keeps unit tests fast.
func (fs *FS) SetPageWriteDelay(d time.Duration) { fs.pageDelay = d }

// SetClock installs the time source the page-write delay elapses on (Bind
// wires the owning loop's clock in), and binds the filesystem's locks to
// it. Nil, the default, means wall time. The caller must guarantee no
// operation is in flight.
func (fs *FS) SetClock(clk vclock.Clock) {
	fs.clk = clk
	fs.mu.Bind(clk)
	fs.opsMu.Bind(clk)
	fs.watchMu.Bind(clk)
	fs.root.bind(clk)
}

// OpCount reports how many times the named operation has been invoked,
// successfully or not. Bug detectors use it (e.g. CLF counts creates).
func (fs *FS) OpCount(op string) int {
	fs.opsMu.Lock()
	defer fs.opsMu.Unlock()
	return fs.ops[op]
}

func (fs *FS) countOp(op string) {
	fs.opsMu.Lock()
	fs.ops[op]++
	fs.opsMu.Unlock()
}

// pathDepth is the component capacity every operation gives split: a
// buffer of constant size stays on the stack, so walking a path allocates
// nothing unless it is deeper.
const pathDepth = 8

// split appends path's normalized components to dst and returns it; "" and
// "/" mean the root. The components are substrings of path.
func split(dst []string, path string) ([]string, bool) {
	if path == "" {
		return nil, false
	}
	for path != "" {
		p := path
		if i := strings.IndexByte(path, '/'); i >= 0 {
			p, path = path[:i], path[i+1:]
		} else {
			path = ""
		}
		switch p {
		case "", ".":
			continue
		case "..":
			return nil, false
		default:
			dst = append(dst, p)
		}
	}
	return dst, true
}

// lookup walks to path; both return values are nil when a component is
// missing. Caller must hold fs.mu.
func (fs *FS) lookup(parts []string) *node {
	n := fs.root
	for _, p := range parts {
		if !n.dir {
			return nil
		}
		child, ok := n.children[p]
		if !ok {
			return nil
		}
		n = child
	}
	return n
}

// lookupParent resolves the directory containing the final component of
// parts. Caller must hold fs.mu.
func (fs *FS) lookupParent(parts []string) (*node, string, Errno) {
	if len(parts) == 0 {
		return nil, "", EINVAL
	}
	n := fs.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := n.children[p]
		if !ok {
			return nil, "", ENOENT
		}
		if !child.dir {
			return nil, "", ENOTDIR
		}
		n = child
	}
	return n, parts[len(parts)-1], 0
}

// Info describes a file or directory, à la os.FileInfo.
type Info struct {
	Name  string
	IsDir bool
	Size  int
}

// Stat describes the file or directory at path.
func (fs *FS) Stat(path string) (Info, error) {
	fs.countOp("stat")
	parts, ok := split(make([]string, 0, pathDepth), path)
	if !ok {
		return Info{}, pathErr("stat", path, EINVAL)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.lookup(parts)
	if n == nil {
		return Info{}, pathErr("stat", path, ENOENT)
	}
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return Info{Name: name, IsDir: n.dir, Size: len(n.data)}, nil
}

// Mkdir creates a single directory. It fails with EEXIST if path already
// exists (file or directory), ENOENT if the parent is missing, ENOTDIR if a
// parent component is a file.
func (fs *FS) Mkdir(path string) error {
	fs.countOp("mkdir")
	parts, ok := split(make([]string, 0, pathDepth), path)
	if !ok || len(parts) == 0 {
		return pathErr("mkdir", path, EINVAL)
	}
	fs.mu.Lock()
	parent, name, code := fs.lookupParent(parts)
	if code != 0 {
		fs.mu.Unlock()
		return pathErr("mkdir", path, code)
	}
	if _, exists := parent.children[name]; exists {
		fs.mu.Unlock()
		return pathErr("mkdir", path, EEXIST)
	}
	parent.children[name] = &node{dir: true, children: make(map[string]*node)}
	fs.mu.Unlock()
	fs.notify(WatchEvent{Op: WatchMkdir, Path: canonical(path)})
	return nil
}

// Create creates (or truncates) the file at path, like open(O_CREAT|O_TRUNC).
func (fs *FS) Create(path string) error {
	fs.countOp("create")
	parts, ok := split(make([]string, 0, pathDepth), path)
	if !ok || len(parts) == 0 {
		return pathErr("create", path, EINVAL)
	}
	fs.mu.Lock()
	parent, name, code := fs.lookupParent(parts)
	if code != 0 {
		fs.mu.Unlock()
		return pathErr("create", path, code)
	}
	if existing, exists := parent.children[name]; exists {
		if existing.dir {
			fs.mu.Unlock()
			return pathErr("create", path, EISDIR)
		}
		existing.fileMu.Lock()
		existing.data = nil
		existing.fileMu.Unlock()
		fs.mu.Unlock()
		fs.notify(WatchEvent{Op: WatchCreate, Path: canonical(path)})
		return nil
	}
	f := &node{}
	f.fileMu.Bind(fs.clk)
	parent.children[name] = f
	fs.mu.Unlock()
	fs.notify(WatchEvent{Op: WatchCreate, Path: canonical(path)})
	return nil
}

// WriteFile creates-or-truncates path and writes data.
func (fs *FS) WriteFile(path string, data []byte) error {
	if err := fs.Create(path); err != nil {
		return err
	}
	return fs.WriteAt(path, 0, data)
}

// ReadFile returns the whole contents of the file at path.
func (fs *FS) ReadFile(path string) ([]byte, error) {
	fs.countOp("read")
	n, err := fs.file("read", path)
	if err != nil {
		return nil, err
	}
	n.fileMu.Lock()
	defer n.fileMu.Unlock()
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// Append appends data atomically to the file at path.
func (fs *FS) Append(path string, data []byte) error {
	fs.countOp("append")
	n, err := fs.file("append", path)
	if err != nil {
		return err
	}
	n.fileMu.Lock()
	n.data = append(n.data, data...)
	n.fileMu.Unlock()
	fs.notify(WatchEvent{Op: WatchWrite, Path: canonical(path)})
	return nil
}

// WriteAt writes data at byte offset off, extending the file as needed.
// Atomicity is page-granular (§4.2.3): the per-file lock is released and
// re-acquired between pages, so concurrent overlapping multi-page writes
// interleave at page boundaries — and never within a page.
func (fs *FS) WriteAt(path string, off int, data []byte) error {
	fs.countOp("write")
	if off < 0 {
		return pathErr("write", path, EINVAL)
	}
	n, err := fs.file("write", path)
	if err != nil {
		return err
	}
	for len(data) > 0 {
		// Bytes remaining in the page containing off.
		chunk := fs.pageSize - off%fs.pageSize
		if chunk > len(data) {
			chunk = len(data)
		}
		n.fileMu.Lock()
		if need := off + chunk; need > len(n.data) {
			grown := make([]byte, need)
			copy(grown, n.data)
			n.data = grown
		}
		copy(n.data[off:], data[:chunk])
		n.fileMu.Unlock()
		off += chunk
		data = data[chunk:]
		if fs.pageDelay > 0 && len(data) > 0 {
			// Charge, not Sleep: WriteAt runs inside a pool task that may
			// hold the run lock, and a participant must never block on the
			// clock while holding a lock another participant needs.
			if fs.clk != nil {
				fs.clk.Charge(fs.pageDelay)
			} else {
				time.Sleep(fs.pageDelay)
			}
		}
	}
	fs.notify(WatchEvent{Op: WatchWrite, Path: canonical(path)})
	return nil
}

// ReadAt reads count bytes at byte offset off; short reads at EOF return
// what is available.
func (fs *FS) ReadAt(path string, off, count int) ([]byte, error) {
	fs.countOp("read")
	if off < 0 || count < 0 {
		return nil, pathErr("read", path, EINVAL)
	}
	n, err := fs.file("read", path)
	if err != nil {
		return nil, err
	}
	n.fileMu.Lock()
	defer n.fileMu.Unlock()
	if off >= len(n.data) {
		return nil, nil
	}
	end := off + count
	if end > len(n.data) {
		end = len(n.data)
	}
	out := make([]byte, end-off)
	copy(out, n.data[off:end])
	return out, nil
}

// Unlink removes the file at path.
func (fs *FS) Unlink(path string) error {
	fs.countOp("unlink")
	parts, ok := split(make([]string, 0, pathDepth), path)
	if !ok || len(parts) == 0 {
		return pathErr("unlink", path, EINVAL)
	}
	fs.mu.Lock()
	parent, name, code := fs.lookupParent(parts)
	if code != 0 {
		fs.mu.Unlock()
		return pathErr("unlink", path, code)
	}
	n, exists := parent.children[name]
	if !exists {
		fs.mu.Unlock()
		return pathErr("unlink", path, ENOENT)
	}
	if n.dir {
		fs.mu.Unlock()
		return pathErr("unlink", path, EISDIR)
	}
	delete(parent.children, name)
	fs.mu.Unlock()
	fs.notify(WatchEvent{Op: WatchRemove, Path: canonical(path)})
	return nil
}

// Exists reports whether path names a file or directory.
func (fs *FS) Exists(path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// file resolves path to a file node.
func (fs *FS) file(op, path string) (*node, error) {
	parts, ok := split(make([]string, 0, pathDepth), path)
	if !ok || len(parts) == 0 {
		return nil, pathErr(op, path, EINVAL)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := fs.lookup(parts)
	if n == nil {
		return nil, pathErr(op, path, ENOENT)
	}
	if n.dir {
		return nil, pathErr(op, path, EISDIR)
	}
	return n, nil
}

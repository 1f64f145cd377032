package simfs

import "fmt"

// Errno is a POSIX-style error number. The MKD bug (§3.3.2) hinges on how
// mkdirp handles EEXIST, so the filesystem reports failures with errno
// fidelity rather than opaque error strings.
type Errno int

// The errnos the simulated filesystem can produce.
const (
	EEXIST Errno = iota + 1
	ENOENT
	ENOTDIR
	EISDIR
	EINVAL
)

var errnoNames = map[Errno]string{
	EEXIST:  "EEXIST: file already exists",
	ENOENT:  "ENOENT: no such file or directory",
	ENOTDIR: "ENOTDIR: not a directory",
	EISDIR:  "EISDIR: illegal operation on a directory",
	EINVAL:  "EINVAL: invalid argument",
}

// Error implements the error interface.
func (e Errno) Error() string {
	if s, ok := errnoNames[e]; ok {
		return s
	}
	return fmt.Sprintf("errno(%d)", int(e))
}

// PathError records the operation, path, and errno of a failed filesystem
// call, in the style of os.PathError.
type PathError struct {
	Op   string
	Path string
	Err  Errno
}

// Error implements the error interface.
func (e *PathError) Error() string {
	return e.Op + " " + e.Path + ": " + e.Err.Error()
}

// Unwrap exposes the errno to errors.Is.
func (e *PathError) Unwrap() error { return e.Err }

// IsErrno reports whether err is a PathError (or bare Errno) carrying code.
func IsErrno(err error, code Errno) bool {
	if err == nil {
		return false
	}
	if pe, ok := err.(*PathError); ok {
		return pe.Err == code
	}
	if e, ok := err.(Errno); ok {
		return e == code
	}
	return false
}

func pathErr(op, path string, code Errno) error {
	return &PathError{Op: op, Path: path, Err: code}
}

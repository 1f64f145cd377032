package simfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestMkdirErrnos(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatalf("mkdir /a: %v", err)
	}
	if err := fs.Mkdir("/a"); !IsErrno(err, EEXIST) {
		t.Fatalf("mkdir existing = %v, want EEXIST", err)
	}
	if err := fs.Mkdir("/x/y"); !IsErrno(err, ENOENT) {
		t.Fatalf("mkdir missing parent = %v, want ENOENT", err)
	}
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/f/sub"); !IsErrno(err, ENOTDIR) {
		t.Fatalf("mkdir under file = %v, want ENOTDIR", err)
	}
	if err := fs.Mkdir("/f"); !IsErrno(err, EEXIST) {
		t.Fatalf("mkdir over file = %v, want EEXIST", err)
	}
	if err := fs.Mkdir("/"); !IsErrno(err, EINVAL) {
		t.Fatalf("mkdir root = %v, want EINVAL", err)
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := New()
	if err := fs.WriteFile("/f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/f")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read = %q, %v", data, err)
	}
	info, err := fs.Stat("/f")
	if err != nil || info.IsDir || info.Size != 5 || info.Name != "f" {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	// Create truncates.
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	data, _ = fs.ReadFile("/f")
	if len(data) != 0 {
		t.Fatalf("after truncate, len = %d", len(data))
	}
}

func TestCreateErrnos(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Create("/d"); !IsErrno(err, EISDIR) {
		t.Fatalf("create over dir = %v, want EISDIR", err)
	}
	if err := fs.Create("/nodir/f"); !IsErrno(err, ENOENT) {
		t.Fatalf("create missing parent = %v, want ENOENT", err)
	}
}

func TestReadMissing(t *testing.T) {
	fs := New()
	if _, err := fs.ReadFile("/nope"); !IsErrno(err, ENOENT) {
		t.Fatalf("err = %v, want ENOENT", err)
	}
	var pe *PathError
	_, err := fs.ReadFile("/nope")
	if !errors.As(err, &pe) || pe.Op != "read" || pe.Path != "/nope" {
		t.Fatalf("PathError = %+v", pe)
	}
}

func TestAppend(t *testing.T) {
	fs := New()
	if err := fs.Create("/log"); err != nil {
		t.Fatal(err)
	}
	_ = fs.Append("/log", []byte("a"))
	_ = fs.Append("/log", []byte("b"))
	data, _ := fs.ReadFile("/log")
	if string(data) != "ab" {
		t.Fatalf("log = %q", data)
	}
}

func TestWriteAtExtendsAndOverwrites(t *testing.T) {
	fs := New()
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteAt("/f", 3, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile("/f")
	if !bytes.Equal(data, []byte{0, 0, 0, 'x', 'y', 'z'}) {
		t.Fatalf("data = %v", data)
	}
	if err := fs.WriteAt("/f", 0, []byte("AB")); err != nil {
		t.Fatal(err)
	}
	data, _ = fs.ReadFile("/f")
	if string(data[:2]) != "AB" {
		t.Fatalf("data = %q", data)
	}
	if err := fs.WriteAt("/f", -1, []byte("x")); !IsErrno(err, EINVAL) {
		t.Fatalf("negative offset err = %v", err)
	}
}

func TestReadAt(t *testing.T) {
	fs := New()
	_ = fs.WriteFile("/f", []byte("0123456789"))
	got, err := fs.ReadAt("/f", 2, 3)
	if err != nil || string(got) != "234" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	got, err = fs.ReadAt("/f", 8, 10)
	if err != nil || string(got) != "89" {
		t.Fatalf("short read = %q, %v", got, err)
	}
	got, err = fs.ReadAt("/f", 100, 1)
	if err != nil || got != nil {
		t.Fatalf("past EOF = %q, %v", got, err)
	}
}

// TestPageGranularWriteAtomicity reproduces the §4.2.3 ext4 property: two
// concurrent overlapping multi-page writes interleave at page granularity;
// every page comes wholly from one writer.
func TestPageGranularWriteAtomicity(t *testing.T) {
	const pages = 8
	fs := NewPageSize(64)
	size := 64 * pages
	mk := func(b byte) []byte { return bytes.Repeat([]byte{b}, size) }
	if err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 50; trial++ {
		var wg sync.WaitGroup
		for _, b := range []byte{'A', 'B'} {
			b := b
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fs.WriteAt("/f", 0, mk(b)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		data, err := fs.ReadFile("/f")
		if err != nil || len(data) != size {
			t.Fatalf("read: %v len=%d", err, len(data))
		}
		for p := 0; p < pages; p++ {
			page := data[p*64 : (p+1)*64]
			first := page[0]
			if first != 'A' && first != 'B' {
				t.Fatalf("page %d has foreign byte %q", p, first)
			}
			for _, c := range page {
				if c != first {
					t.Fatalf("page %d torn: mixes %q and %q", p, first, c)
				}
			}
		}
	}
}

func TestUnlink(t *testing.T) {
	fs := New()
	_ = fs.Mkdir("/d")
	_ = fs.WriteFile("/d/f", []byte("x"))
	if err := fs.Unlink("/d"); !IsErrno(err, EISDIR) {
		t.Fatalf("unlink dir = %v", err)
	}
	if err := fs.Unlink("/d/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/d/f"); !IsErrno(err, ENOENT) {
		t.Fatalf("unlink twice = %v", err)
	}
	if fs.Exists("/d/f") || !fs.Exists("/d") {
		t.Fatal("unlink removed the wrong node")
	}
}

func TestRootStat(t *testing.T) {
	fs := New()
	info, err := fs.Stat("/")
	if err != nil || !info.IsDir {
		t.Fatalf("stat / = %+v, %v", info, err)
	}
}

func TestDotDotRejected(t *testing.T) {
	fs := New()
	if err := fs.Mkdir("/a/../b"); !IsErrno(err, EINVAL) {
		t.Fatalf("dotdot = %v, want EINVAL", err)
	}
}

func TestOpCount(t *testing.T) {
	fs := New()
	_ = fs.Create("/a")
	_ = fs.Create("/b")
	_ = fs.Mkdir("/d")
	if fs.OpCount("create") != 2 || fs.OpCount("mkdir") != 1 {
		t.Fatalf("counts: create=%d mkdir=%d", fs.OpCount("create"), fs.OpCount("mkdir"))
	}
}

// TestWriteReadRoundTripQuick: what you write at an offset is what you read
// back, for arbitrary payloads.
func TestWriteReadRoundTripQuick(t *testing.T) {
	fs := New()
	if err := fs.Create("/q"); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, data []byte) bool {
		o := int(off % 10000)
		if err := fs.WriteAt("/q", o, data); err != nil {
			return false
		}
		got, err := fs.ReadAt("/q", o, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrnoError(t *testing.T) {
	if EEXIST.Error() == "" || Errno(999).Error() == "" {
		t.Fatal("empty errno strings")
	}
	if IsErrno(nil, EEXIST) {
		t.Fatal("IsErrno(nil) = true")
	}
	if !IsErrno(EEXIST, EEXIST) {
		t.Fatal("bare errno not matched")
	}
}

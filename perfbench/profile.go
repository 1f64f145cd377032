package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers a CPU profile is split into, in report order.
// handoff is goroutine parking and run-token passing inside the Go
// scheduler; gc is the collector; other is everything else (the corpus
// apps, substrates without a bucket of their own, the benchmark itself).
var cpuBuckets = []string{
	"eventloop", "pool", "simnet", "vclock", "oracle", "core", "campaign", "sched",
	"handoff", "gc", "other",
}

// repoPrefix is the import-path prefix of the program's own packages.
const repoPrefix = "nodefz/internal/"

// handoffFuncs are the runtime functions that park, wake and switch
// goroutines: where a trial's loop, pool and network goroutines pass the
// virtual clock's run token to each other.
var handoffFuncs = map[string]bool{
	"runtime.gopark": true, "runtime.park_m": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.selectgo": true, "runtime.findRunnable": true,
	"runtime.schedule": true, "runtime.execute": true, "runtime.runqget": true,
	"runtime.runqput": true, "runtime.runqgrab": true, "runtime.runqsteal": true,
	"runtime.stealWork": true, "runtime.futex": true, "runtime.futexsleep": true,
	"runtime.futexwakeup": true, "runtime.notesleep": true, "runtime.notewakeup": true,
	"runtime.mcall": true, "runtime.gogo": true, "runtime.chansend": true,
	"runtime.chanrecv": true, "runtime.send": true, "runtime.recv": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.wakep": true,
	"runtime.startm": true, "runtime.stopm": true, "runtime.handoffp": true,
	"runtime.lock2": true, "runtime.unlock2": true, "runtime.procyield": true,
	"runtime.osyield": true, "runtime.usleep": true, "runtime.mPark": true,
	"runtime.casgstatus": true, "runtime.resetspinning": true,
	"runtime.goschedImpl": true, "runtime.gosched_m": true, "runtime.netpoll": true,
	"runtime.checkTimers": true, "runtime.mstart1": true,
}

// gcMarkers are substrings of runtime function names that belong to the
// garbage collector (marking, assists, sweeping, scavenging, write
// barriers).
var gcMarkers = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.greyobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.scanframe", "sweep",
	"scavenge", "runtime.wbBuf", "runtime.findObject", "runtime.(*gcWork)",
	"runtime.bulkBarrierPreWrite",
}

// bucketOf classifies one sampled stack, given as function names from the
// leaf outwards. Any collector frame makes the sample gc. Otherwise the
// walk goes up from the leaf: a scheduler frame makes it handoff, and the
// first frame of the program's own packages names the layer — so a runtime
// helper (an allocation, a map lookup) is charged to the layer that called
// it. Stacks that reach neither are other.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.") {
			for _, m := range gcMarkers {
				if strings.Contains(fn, m) {
					return "gc"
				}
			}
		}
	}
	for _, fn := range stack {
		if handoffFuncs[fn] {
			return "handoff"
		}
		if strings.HasPrefix(fn, repoPrefix) {
			pkg := fn[len(repoPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, b := range cpuBuckets {
				if b == pkg {
					return b
				}
			}
			return "other"
		}
	}
	return "other"
}

// cpuShares decodes a CPU profile as runtime/pprof writes it and returns
// each bucket's share of the sampled CPU time, plus the sample count.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	weights := make(map[string]int64)
	var total, samples int64
	for _, s := range stacks {
		weights[bucketOf(s.funcs)] += s.weight
		total += s.weight
		samples += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(weights[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares, samples, nil
}

// sampledStack is one profile sample: its stack as function names from the
// leaf outwards, its sample count and its weight (CPU nanoseconds).
type sampledStack struct {
	funcs         []string
	count, weight int64
}

// decodeProfile reads the gzipped profile.proto message runtime/pprof
// writes, keeping only what bucketing needs: samples, locations, functions
// and the string table.
func decodeProfile(data []byte) ([]sampledStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, u := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sampledStack, 0, len(samples))
	for _, s := range samples {
		st := sampledStack{count: 1, weight: 1}
		if len(s.values) >= 1 {
			st.count, st.weight = s.values[0], s.values[0]
		}
		if len(s.values) >= 2 {
			st.weight = s.values[1]
		}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, errors.New("profile: function name out of string table")
				}
				st.funcs = append(st.funcs, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// appendVarints appends a repeated varint field's values, whether the field
// arrived packed (wire type 2) or as one varint.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
func eachField(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

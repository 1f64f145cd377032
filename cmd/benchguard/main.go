// Command benchguard turns `go test -bench` output into the repo's BENCH
// JSON shape and compares two such files as a CI regression gate.
//
// Parse mode reads benchmark text from stdin:
//
//	go test -bench 'BenchmarkTrialVirtualVsWall' -benchtime 10x -benchmem . \
//	  | benchguard -parse -o BENCH_pr.json
//
// Compare mode checks a PR's numbers against the committed baseline. An
// allocs/op increase beyond the tolerance on any benchmark fails the build,
// and so does a benchmark present in only one of the two files, so a
// guarded benchmark cannot leave the gate by being renamed or dropped.
// ns/op and B/op drifts are reported but non-fatal, because CI machines
// make time measurements noisy while allocation counts are deterministic:
//
//	benchguard -baseline BENCH_baseline.json -current BENCH_pr.json -tol 0.10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one benchmark's measured numbers.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// File is the BENCH_*.json document.
type File struct {
	Date      string `json:"date"`
	Benchtime string `json:"benchtime,omitempty"`
	Env       struct {
		Goos   string `json:"goos"`
		Goarch string `json:"goarch"`
		Pkg    string `json:"pkg"`
		CPU    string `json:"cpu"`
	} `json:"env"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	var (
		parse     = flag.Bool("parse", false, "parse `go test -bench` text from stdin into BENCH JSON")
		out       = flag.String("o", "", "parse mode: output file (default stdout)")
		benchtime = flag.String("benchtime", "", "parse mode: record the -benchtime used")
		baseline  = flag.String("baseline", "", "compare mode: baseline BENCH JSON")
		current   = flag.String("current", "", "compare mode: current BENCH JSON")
		tol       = flag.Float64("tol", 0.10, "compare mode: fatal allocs/op regression threshold (fraction)")
	)
	flag.Parse()

	switch {
	case *parse:
		doc, err := parseBench(os.Stdin, *benchtime)
		if err != nil {
			fatal(err)
		}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		b = append(b, '\n')
		if *out == "" {
			os.Stdout.Write(b)
			return
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
	case *baseline != "" && *current != "":
		base, err := load(*baseline)
		if err != nil {
			fatal(err)
		}
		cur, err := load(*current)
		if err != nil {
			fatal(err)
		}
		if !compare(os.Stdout, base, cur, *tol) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: benchguard -parse [-o FILE] | benchguard -baseline FILE -current FILE [-tol 0.10]")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

func load(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// parseBench reads the text `go test -bench -benchmem` prints: header lines
// (goos:, goarch:, pkg:, cpu:) and result lines of the form
//
//	BenchmarkName[-P]  N  123 ns/op  456 B/op  7 allocs/op
func parseBench(r *os.File, benchtime string) (*File, error) {
	doc := &File{Date: time.Now().UTC().Format("2006-01-02"), Benchtime: benchtime}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Env.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Env.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			doc.Env.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.Env.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseResultLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return doc, nil
}

func parseResultLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false
	}
	var b Benchmark
	// Strip the -GOMAXPROCS suffix so names match across machines.
	b.Name = fields[0]
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if _, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name = b.Name[:i]
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = n
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		}
	}
	return b, true
}

// compare writes a row per benchmark to w and returns false if any
// allocs/op regression exceeds tol, or if a benchmark is in one file but
// not the other.
func compare(w io.Writer, base, cur *File, tol float64) bool {
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	measured := make(map[string]bool, len(cur.Benchmarks))
	ok := true
	matched := 0
	for _, c := range cur.Benchmarks {
		measured[c.Name] = true
		b, found := baseBy[c.Name]
		if !found {
			fmt.Fprintf(w, "%-45s FAIL measured but not in the baseline\n", c.Name)
			ok = false
			continue
		}
		matched++
		allocDelta := rel(b.AllocsPerOp, c.AllocsPerOp)
		nsDelta := rel(b.NsPerOp, c.NsPerOp)
		verdict := "ok"
		if allocDelta > tol {
			verdict = fmt.Sprintf("FAIL allocs/op +%.1f%% > %.0f%%", 100*allocDelta, 100*tol)
			ok = false
		}
		fmt.Fprintf(w, "%-45s allocs %6.0f -> %6.0f (%+.1f%%)  ns/op %+.1f%% (informational)  %s\n",
			c.Name, b.AllocsPerOp, c.AllocsPerOp, 100*allocDelta, 100*nsDelta, verdict)
	}
	for _, b := range base.Benchmarks {
		if !measured[b.Name] {
			fmt.Fprintf(w, "%-45s FAIL in the baseline but not measured\n", b.Name)
			ok = false
		}
	}
	if matched == 0 {
		fmt.Fprintln(w, "benchguard: no benchmark names in common — nothing compared")
		return false
	}
	return ok
}

// rel is the signed relative change from a to b, with 0/0 counting as no
// change and a growth from zero counting as a full-tolerance breach.
func rel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1
	}
	return (b - a) / a
}
